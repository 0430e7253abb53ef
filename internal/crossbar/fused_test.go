package crossbar

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// scrambledArray builds an array with a noisy mix of programmed levels,
// stuck cells, drift, and spared rows, so the incremental structures
// (pmasks, levelList) are exercised through every mutation path.
func scrambledArray(t *testing.T, rows, cols, bpc, spares int, seed uint64) *Array {
	t.Helper()
	a := NewArrayWithSpares(rows, cols, bpc, spares)
	rng := rand.New(rand.NewPCG(seed, 17))
	k := a.NumLevels()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.7 {
				a.Set(r, c, uint8(rng.IntN(k)))
			}
		}
	}
	for i := 0; i < rows*cols/20; i++ {
		a.SetStuck(rng.IntN(rows), rng.IntN(cols), uint8(rng.IntN(k)))
	}
	for i := 0; i < rows*cols/20; i++ {
		a.DriftCell(rng.IntN(rows), rng.IntN(cols), 1-2*rng.IntN(2))
	}
	for s := 0; s < spares; s++ {
		a.SpareRow(rng.IntN(rows), 3, nil, rng)
	}
	// Post-sparing churn so decommissioned lines and replacements also move.
	for i := 0; i < rows*cols/10; i++ {
		a.Set(rng.IntN(rows), rng.IntN(cols), uint8(rng.IntN(k)))
	}
	return a
}

func randomMask(rng *rand.Rand, words, cols int) []uint64 {
	m := make([]uint64, words)
	for w := range m {
		m[w] = rng.Uint64()
	}
	if rem := cols % 64; rem != 0 {
		m[words-1] &= 1<<uint(rem) - 1
	}
	return m
}

// TestActiveCountsBatchMatchesScalar proves the fused multi-image kernel
// equals per-(image, plane) ActiveCounts on every row of heavily mutated
// arrays (stuck cells, drift, spared rows), at batch sizes 1, 2 and 5 and
// for rows of one, two and several mask words — the unrolled and the
// general word loops. Levels absent from the row's level list are never
// written by the kernel, so the scalar count must be zero there.
func TestActiveCountsBatchMatchesScalar(t *testing.T) {
	const planes = 8
	for _, cols := range []int{40, 100, 200} {
		a := scrambledArray(t, 32, cols, 2, 2, uint64(5+cols))
		rng := rand.New(rand.NewPCG(9, uint64(cols)))
		for _, b := range []int{1, 2, 5} {
			sets := make([][][]uint64, b)
			for i := range sets {
				sets[i] = make([][]uint64, planes)
				for p := range sets[i] {
					sets[i][p] = randomMask(rng, a.MaskWords(), a.Cols)
				}
			}
			stride := b * planes
			counts := make([]int, a.NumLevels()*stride)
			want := make([]int, a.NumLevels())
			for r := 0; r < a.Rows; r++ {
				for i := range counts {
					counts[i] = -1
				}
				a.ActiveCountsBatch(r, sets, counts)
				present := make([]bool, a.NumLevels())
				for _, l := range a.LevelList(r) {
					present[l] = true
				}
				for i, set := range sets {
					for p, in := range set {
						a.ActiveCounts(r, in, want)
						for l := 1; l < a.NumLevels(); l++ {
							if !present[l] {
								if want[l] != 0 {
									t.Fatalf("cols %d B %d row %d: unlisted level %d has %d active cells", cols, b, r, l, want[l])
								}
								continue
							}
							if got := counts[l*stride+i*planes+p]; got != want[l] {
								t.Fatalf("cols %d B %d row %d image %d plane %d level %d: fused %d, scalar %d",
									cols, b, r, i, p, l, got, want[l])
							}
						}
					}
				}
			}
		}
	}
}

// TestLevelListConsistent checks the incrementally maintained present-level
// lists against the histograms after the mutation storm.
func TestLevelListConsistent(t *testing.T) {
	a := scrambledArray(t, 24, 70, 3, 1, 11)
	for p := range a.hist {
		var want []uint8
		for l := 1; l < a.NumLevels(); l++ {
			if a.hist[p][l] > 0 {
				want = append(want, uint8(l))
			}
		}
		got := a.levelList[p]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual([]uint8(got), want) {
			t.Fatalf("phys row %d: level list %v, histogram says %v", p, got, want)
		}
	}
}

// TestProgrammedRowOutputMatchesScan cross-checks the pmask word walk
// against the original O(cols) cell scan, including after stuck faults,
// drift, sparing, and reprogramming have separated eff from levels.
func TestProgrammedRowOutputMatchesScan(t *testing.T) {
	a := scrambledArray(t, 40, 130, 2, 3, 23)
	rng := rand.New(rand.NewPCG(4, 2))
	for trial := 0; trial < 32; trial++ {
		input := randomMask(rng, a.MaskWords(), a.Cols)
		for r := 0; r < a.Rows; r++ {
			got := a.ProgrammedRowOutput(r, input)
			want := a.programmedRowOutputScan(r, input)
			if got != want {
				t.Fatalf("trial %d row %d: mask walk %d, cell scan %d", trial, r, got, want)
			}
		}
	}
}

// TestInputMasksIntoMatches checks the reusing variant (and its zero-input
// skip) against the allocating one, including reuse across shrinking and
// growing vector lengths with stale bits left in the scratch planes.
func TestInputMasksIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	var scratch [][]uint64
	for trial := 0; trial < 64; trial++ {
		n := 1 + rng.IntN(200)
		bits := 1 + rng.IntN(12)
		vals := make([]uint64, n)
		for i := range vals {
			switch rng.IntN(3) {
			case 0: // zero-heavy to exercise the skip
			case 1:
				vals[i] = rng.Uint64N(1 << uint(bits))
			case 2:
				vals[i] = rng.Uint64() // high garbage bits must be ignored
			}
		}
		// Independent naive reference (InputMasks itself now delegates to
		// InputMasksInto, so it cannot serve as the oracle).
		want := make([][]uint64, bits)
		for b := range want {
			want[b] = make([]uint64, (n+63)/64)
			for j, v := range vals {
				if v>>uint(b)&1 == 1 {
					want[b][j/64] |= 1 << uint(j%64)
				}
			}
		}
		if got := InputMasks(vals, bits); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: InputMasks diverged from naive reference", trial)
		}
		scratch = InputMasksInto(scratch, vals, bits)
		if len(scratch) != len(want) {
			t.Fatalf("trial %d: %d planes, want %d", trial, len(scratch), len(want))
		}
		for b := range want {
			if !reflect.DeepEqual(scratch[b], want[b]) {
				t.Fatalf("trial %d plane %d: got %x, want %x", trial, b, scratch[b], want[b])
			}
		}
	}
}

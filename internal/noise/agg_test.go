package noise

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestAggregateRowLevelsMatchesFull checks the level-list aggregation path
// against the full-scan one on random sparse count vectors: same float
// accumulation order, bit-identical aggregates.
func TestAggregateRowLevelsMatchesFull(t *testing.T) {
	p := DefaultDeviceParams()
	p.BitsPerCell = 3
	s, err := NewRowSampler(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(12, 34))
	k := p.NumLevels()
	for trial := 0; trial < 200; trial++ {
		counts := make([]int, k)
		var levels []uint8
		for l := 1; l < k; l++ {
			switch rng.IntN(3) {
			case 0: // absent level: zero count, not listed
			case 1: // present level with zero active count: listed, zero
				levels = append(levels, uint8(l))
			case 2:
				levels = append(levels, uint8(l))
				counts[l] = 1 + rng.IntN(64)
			}
		}
		want := s.AggregateRow(counts)
		got := s.AggregateRowLevels(levels, counts)
		if got != want {
			t.Fatalf("trial %d (levels %v counts %v): list agg %+v, full agg %+v",
				trial, levels, counts, got, want)
		}
	}
}

// TestAccumulateRowLevelsBatchMatchesScalar checks the batched level-major
// reduction — the only one the accelerator's read path uses — against
// AggregateRowLevels on each reduction's own counts, bit for bit, with the
// ideal output sum(level*count) alongside. Zero counts on listed levels,
// reductions with no active cell at all, and stale entries at unlisted
// levels are all exercised.
func TestAccumulateRowLevelsBatchMatchesScalar(t *testing.T) {
	for _, bpc := range []int{2, 3} {
		p := DefaultDeviceParams()
		p.BitsPerCell = bpc
		s, err := NewRowSampler(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(56, uint64(bpc)))
		k := p.NumLevels()
		for trial := 0; trial < 100; trial++ {
			var levels []uint8
			for l := 1; l < k; l++ {
				if rng.IntN(3) != 0 {
					levels = append(levels, uint8(l))
				}
			}
			listed := make([]bool, k)
			for _, l := range levels {
				listed[l] = true
			}
			// Unlisted levels carry stale garbage, as in the crossbar
			// kernel's buffer: the reduction must never read them.
			stride := 1 + rng.IntN(24)
			flat := make([]int, k*stride)
			for l := 0; l < k; l++ {
				for i := 0; i < stride; i++ {
					switch {
					case !listed[l]:
						flat[l*stride+i] = 1000 + rng.IntN(1000)
					case rng.IntN(4) != 0:
						flat[l*stride+i] = rng.IntN(65)
					}
				}
			}
			accs := make([]AggAccum, stride)
			s.AccumulateRowLevelsBatch(levels, flat, accs)
			counts := make([]int, k)
			for i := range accs {
				wantIdeal := 0
				for l := range counts {
					counts[l] = 0
					if listed[l] {
						counts[l] = flat[l*stride+i]
					}
					wantIdeal += l * counts[l]
				}
				want := s.AggregateRowLevels(levels, counts)
				got, ideal := s.FinishAccum(&accs[i])
				if got.N != want.N ||
					math.Float64bits(got.Sbar) != math.Float64bits(want.Sbar) ||
					math.Float64bits(got.Resid) != math.Float64bits(want.Resid) ||
					math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) {
					t.Fatalf("bits %d trial %d reduction %d (levels %v counts %v): batch %+v, scalar %+v",
						bpc, trial, i, levels, counts, got, want)
				}
				if ideal != wantIdeal {
					t.Fatalf("bits %d trial %d reduction %d: ideal %d, want %d", bpc, trial, i, ideal, wantIdeal)
				}
			}
		}
	}
}

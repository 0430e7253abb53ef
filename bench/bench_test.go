package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if tc.want > 0 && beyond(tc.n, tc.want) < minTail {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, tc.want*100, beyond(tc.n, tc.want))
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200, 199, ..., 1
	}
	p95, err := tail(xs, 0.95)
	if err != nil || p95 != 190 {
		t.Fatalf("p95 of 1..200 = %g, %v; want 190 with 10 samples beyond", p95, err)
	}
	if _, err := tail(xs[:199], 0.95); err == nil {
		t.Fatal("p95 of 199 samples has only 9 beyond it and must be refused")
	}
	if q := quantile([]float64{3, 1, 2}, 0.5); q != 2 {
		t.Fatalf("median of {3,1,2} = %g, want 2", q)
	}
}

func TestGoodputCountsRefusalsAsMisses(t *testing.T) {
	ms := time.Millisecond
	ops := []outcome{
		{ok: true, latency: 100 * ms},
		{ok: true, latency: 250 * ms},  // at the limit: good
		{ok: true, latency: 251 * ms},  // late
		{ok: false, latency: 1 * ms},   // refused at once: still a miss
		{ok: false, latency: 100 * ms}, // wrong answer: a miss
	}
	if got := goodput(ops, 250*ms, 2*time.Second); got != 1 {
		t.Fatalf("goodput = %g/s, want 2 good in 2 s = 1/s", got)
	}
	if got := goodput(ops, 250*ms, 0); got != 0 {
		t.Fatalf("goodput over an empty window = %g, want 0", got)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	span := 20 * time.Second
	a, b := schedule(7, 200, 1, span), schedule(7, 200, 1, span)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	c := schedule(8, 200, 1, span)
	if slices.Equal(dues(a), dues(c)) {
		t.Fatal("different seeds gave identical due times")
	}
	for _, reqs := range [][]request{a, c} {
		last := time.Duration(-1)
		for _, r := range reqs {
			if r.due < last || r.due >= span {
				t.Fatalf("due time %v out of order or outside [0, %v)", r.due, span)
			}
			last = r.due
		}
	}
	// Seeds reorder one fixed mix of gaps.
	ga, gc := sortedGaps(a, span), sortedGaps(c, span)
	for i := range ga {
		if d := ga[i] - gc[i]; d < -2 || d > 2 {
			t.Fatalf("gap %d: %v under seed 7, %v under seed 8", i, ga[i], gc[i])
		}
	}
}

func sortedGaps(reqs []request, span time.Duration) []time.Duration {
	gaps := []time.Duration{reqs[0].due}
	for i := 1; i < len(reqs); i++ {
		gaps = append(gaps, reqs[i].due-reqs[i-1].due)
	}
	gaps = append(gaps, span-reqs[len(reqs)-1].due)
	slices.Sort(gaps)
	return gaps
}

func TestArrivalsAreStratifiedInBlocks(t *testing.T) {
	span := 20 * time.Second
	for _, n := range []int{13, 200} {
		ref := arrivals(1, n, span)
		for seed := uint64(2); seed <= 20; seed++ {
			at := arrivals(seed, n, span)
			// Block ends sit on the same grid under every seed.
			for i := arrivalBlock - 1; i < n; i += arrivalBlock {
				if d := at[i] - ref[i]; d < -2 || d > 2 {
					t.Fatalf("n=%d seed %d: arrival %d at %v, seed 1 has it at %v", n, seed, i, at[i], ref[i])
				}
			}
			// Within a block, every even-place gap is shorter than every
			// odd-place one, so no two short gaps are adjacent.
			gaps := []time.Duration{at[0]}
			for i := 1; i < n; i++ {
				gaps = append(gaps, at[i]-at[i-1])
			}
			gaps = append(gaps, span-at[n-1])
			for b := 0; b < len(gaps); b += arrivalBlock {
				block := gaps[b:min(b+arrivalBlock, len(gaps))]
				for i := 0; i < len(block); i += 2 {
					for j := 1; j < len(block); j += 2 {
						if block[i] >= block[j] {
							t.Fatalf("n=%d seed %d block %d: gap %d (%v) not shorter than gap %d (%v)",
								n, seed, b/arrivalBlock, i, block[i], j, block[j])
						}
					}
				}
			}
		}
	}
}

func TestBurstScheduleSendsEveryImageOnce(t *testing.T) {
	reqs := schedule(3, 13, 16, 20*time.Second)
	if len(reqs) != 208 {
		t.Fatalf("%d requests, want 13 bursts of 16", len(reqs))
	}
	seen := map[int]bool{}
	seeds := map[uint64]bool{}
	for i, r := range reqs {
		if r.due != reqs[i-i%16].due {
			t.Fatalf("request %d is not due with its burst", i)
		}
		seen[r.img], seeds[r.seed] = true, true
	}
	if len(seen) != 208 || len(seeds) != 208 {
		t.Fatalf("%d distinct images and %d distinct streams, want 208 each", len(seen), len(seeds))
	}
}

func TestClosedPoolCyclesImagesWithOwnStreams(t *testing.T) {
	a, b := closedPool(5, 25, 10), closedPool(5, 25, 10)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different closed-loop pools")
	}
	if slices.Equal(a, closedPool(6, 25, 10)) {
		t.Fatal("different seeds gave the same closed-loop pool")
	}
	seen := map[int]bool{}
	seeds := map[uint64]bool{}
	for i, r := range a {
		if r.img != a[i%10].img {
			t.Fatalf("request %d sends image %d, want the pool's cycle (%d)", i, r.img, a[i%10].img)
		}
		seen[r.img], seeds[r.seed] = true, true
	}
	if len(seen) != 10 || len(seeds) != 25 {
		t.Fatalf("%d distinct images and %d distinct streams, want 10 and 25", len(seen), len(seeds))
	}
}

func dues(reqs []request) []time.Duration {
	out := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		out[i] = r.due
	}
	return out
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"sticking out", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{100, 200}}, 100},
		{"covering", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPassBusyCountsCoalescedPassOnce(t *testing.T) {
	ms := int64(time.Millisecond)
	starts := []int64{0, 0, 0, 100 * ms, 100*ms + 1}
	infers := []time.Duration{30 * time.Millisecond, 31 * time.Millisecond, 31 * time.Millisecond,
		40 * time.Millisecond, 40 * time.Millisecond}
	if got := passBusy(starts, infers, time.Millisecond); got != 71*time.Millisecond {
		t.Fatalf("busy %v, want one 31 ms pass plus one 40 ms pass", got)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics the
// benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end %v, want %v", spec.EndToEnd, endToEndMetrics)
	}
	if !slices.Equal(spec.PerLayer, perLayerMetrics()) {
		t.Errorf("per_layer differs from perLayerMetrics()")
	}
	var names []string
	for _, w := range workloads {
		if !w.extra {
			names = append(names, w.name)
		}
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if !slices.Equal(got, names) {
		t.Errorf("workloads %v, want %v", got, names)
	}
}

package accel

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/stats"
)

// batchTestEngine maps a small noisy MLP (real RTN/programming noise so the
// ECU, retries, and giant draws are all live).
func batchTestEngine(t *testing.T) (*Engine, []*nn.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewPCG(8, 8))
	net := &nn.Network{Name: "batch", InShape: []int{12},
		Layers: []nn.Layer{nn.NewDense(12, 10, rng), &nn.ReLU{}, nn.NewDense(10, 4, rng)}}
	cfg := DefaultConfig(SchemeABN(9))
	cfg.Device.BitsPerCell = 2
	eng, err := Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*nn.Tensor, 16)
	for i := range xs {
		xs[i] = nn.NewTensor(12)
		for j := range xs[i].Data {
			xs[i].Data[j] = float64((i*7+j*3)%11) / 11
		}
	}
	return eng, xs
}

// TestForwardBatchMatchesSerial is the batch-size-invariance contract at
// the engine level: for every stream, ForwardBatch output bits must equal a
// serial session's Reseed+Forward — at batch size 1, at full batch, and in
// shuffled sub-batches.
func TestForwardBatchMatchesSerial(t *testing.T) {
	eng, xs := batchTestEngine(t)
	serial := eng.NewSession(0)
	want := make([][]float64, len(xs))
	for i, x := range xs {
		serial.Reseed(uint64(1000 + i))
		out := serial.Forward(x)
		want[i] = append([]float64(nil), out.Data...)
	}

	sess := eng.NewSession(0)
	defer sess.Close()
	for _, size := range []int{1, 3, 16} {
		for lo := 0; lo < len(xs); lo += size {
			hi := min(lo+size, len(xs))
			streams := make([]uint64, hi-lo)
			for i := range streams {
				streams[i] = uint64(1000 + lo + i)
			}
			outs, errs := sess.ForwardBatch(xs[lo:hi], streams)
			for i, out := range outs {
				if errs[i] != nil {
					t.Fatalf("size %d image %d: %v", size, lo+i, errs[i])
				}
				for j, v := range out.Data {
					if v != want[lo+i][j] {
						t.Fatalf("size %d image %d logit %d: batch %v serial %v",
							size, lo+i, j, v, want[lo+i][j])
					}
				}
			}
		}
	}
}

// TestForwardBatchStats: batched per-lane stats must mirror the serial
// per-request stats (including the BatchMVMs counter marking the path).
func TestForwardBatchStats(t *testing.T) {
	eng, xs := batchTestEngine(t)
	serial := eng.NewSession(0)
	sess := eng.NewSession(0)
	defer sess.Close()

	streams := make([]uint64, len(xs))
	for i := range streams {
		streams[i] = uint64(500 + i)
	}
	_, errs := sess.ForwardBatch(xs, streams)
	perLayer := map[int]Stats{}
	for i := range xs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		serial.Reseed(streams[i])
		serial.Forward(xs[i])
		ref := serial.DrainStats()

		sess.DrainBatchLayerStatsInto(i, perLayer)
		var sum Stats
		for _, ls := range perLayer {
			sum.Merge(ls)
		}
		st := sess.DrainBatchStats(i)
		if st != sum {
			t.Fatalf("image %d: lane total %+v != layer sum %+v", i, st, sum)
		}
		if st.BatchMVMs != 2 {
			t.Fatalf("image %d: BatchMVMs = %d, want 2 (one per mapped layer)", i, st.BatchMVMs)
		}
		st.BatchMVMs = 0
		if st != ref {
			t.Fatalf("image %d: batch stats %+v != serial %+v", i, st, ref)
		}
	}
}

// TestForwardBatchPerImageFailure: a malformed input must fail alone; its
// batchmates stay bit-identical to their serial outputs.
func TestForwardBatchPerImageFailure(t *testing.T) {
	eng, xs := batchTestEngine(t)
	serial := eng.NewSession(0)
	sess := eng.NewSession(0)
	defer sess.Close()

	batch := []*nn.Tensor{xs[0], nn.NewTensor(5), xs[2]}
	streams := []uint64{70, 71, 72}
	outs, errs := sess.ForwardBatch(batch, streams)
	if errs[1] == nil || outs[1] != nil {
		t.Fatal("bad-shape image must fail")
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("batchmate %d failed: %v", i, errs[i])
		}
		serial.Reseed(streams[i])
		want := serial.Forward(batch[i])
		for j, v := range outs[i].Data {
			if v != want.Data[j] {
				t.Fatalf("batchmate %d logit %d: %v vs %v", i, j, v, want.Data[j])
			}
		}
	}
}

// TestMVMLanesMatchesSerial: the multi-lane layer dispatch the replica
// router batches through must be bit- and stats-identical to per-image
// MVMLayer under the same derived streams, and count BatchMVMs only when
// asked to.
func TestMVMLanesMatchesSerial(t *testing.T) {
	eng, _ := batchTestEngine(t)
	layer := eng.Layers()[0]
	m := eng.Mapped(layer)

	const B = 5
	xs := make([][]float64, B)
	for i := range xs {
		xs[i] = make([]float64, 12)
		for j := range xs[i] {
			xs[i][j] = float64((i+j)%9) / 9
		}
	}
	streams := make([]uint64, B)
	idx := make([]int, B)
	for i := range streams {
		streams[i] = uint64(40 + i)
		idx[i] = i
	}

	serial := eng.NewSession(0)
	want := make([][]float64, B)
	wantSt := make([]Stats, B)
	for i := range xs {
		serial.Reseed(streams[i])
		out, st := serial.MVMLayer(layer, xs[i])
		want[i] = append([]float64(nil), out...)
		wantSt[i] = st
	}

	sess := eng.NewSession(0)
	defer sess.Close()
	outs := make([][]float64, B)
	diffs := make([]Stats, B)
	if errs := sess.MVMLanes(layer, idx, streams, xs, outs, diffs, true); errs != nil {
		t.Fatalf("MVMLanes failed: %v", errs)
	}
	for i := range xs {
		if len(outs[i]) != m.outDim {
			t.Fatalf("image %d: out dim %d", i, len(outs[i]))
		}
		for j, v := range outs[i] {
			if v != want[i][j] {
				t.Fatalf("image %d out %d: %v vs %v", i, j, v, want[i][j])
			}
		}
		d := diffs[i]
		if d.BatchMVMs != 1 {
			t.Fatalf("image %d: BatchMVMs = %d", i, d.BatchMVMs)
		}
		d.BatchMVMs = 0
		if d != wantSt[i] {
			t.Fatalf("image %d stats: %+v vs %+v", i, d, wantSt[i])
		}
	}
	// A single-image dispatch is not a batched pass.
	if errs := sess.MVMLanes(layer, idx[:1], streams[:1], xs[:1], outs, diffs, false); errs != nil {
		t.Fatalf("MVMLanes failed: %v", errs)
	}
	if diffs[0] != wantSt[0] {
		t.Fatalf("unbatched lane stats %+v, want %+v", diffs[0], wantSt[0])
	}
}

// TestForwardBatchFallbackLayer: with a layer degraded to the software
// path, the batched forward must still answer every image and count
// SoftMVMs per lane.
func TestForwardBatchFallbackLayer(t *testing.T) {
	eng, xs := batchTestEngine(t)
	layer := eng.Layers()[0]
	if err := eng.SetFallback(layer, true); err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession(0)
	defer sess.Close()
	streams := []uint64{1, 2, 3, 4}
	outs, errs := sess.ForwardBatch(xs[:4], streams)
	for i := range outs {
		if errs[i] != nil || outs[i] == nil {
			t.Fatalf("image %d: %v", i, errs[i])
		}
		st := sess.DrainBatchStats(i)
		if st.SoftMVMs != 1 {
			t.Fatalf("image %d: SoftMVMs = %d, want 1", i, st.SoftMVMs)
		}
	}
}

// TestForwardBatchArenaReuse pins the 0-alloc contract of the warm batched
// forward across varying batch sizes: after warming at the largest size,
// smaller and repeated batches must not allocate at all.
func TestForwardBatchArenaReuse(t *testing.T) {
	eng, xs := batchTestEngine(t)
	sess := eng.NewSession(0)
	defer sess.Close()
	streams := make([]uint64, len(xs))
	for i := range streams {
		streams[i] = uint64(i)
	}
	// Warm at the largest size (lane spawn, arena growth), then vary.
	sess.ForwardBatch(xs, streams)
	for _, size := range []int{1, 4, 16, 7, 16} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, errs := sess.ForwardBatch(xs[:size], streams[:size]); errs[0] != nil {
				t.Fatal(errs[0])
			}
		})
		if allocs != 0 {
			t.Fatalf("batch size %d: %v allocs/op on warm ForwardBatch", size, allocs)
		}
	}
}

// TestRaceForwardBatchVsMutators is the batched counterpart of
// TestRaceTrafficVsMutators: concurrent ForwardBatch streams against fault
// injection, remaps, scrub repairs, fallback flips, and retunes. Under
// -race this certifies the batched path takes the same slot locks as the
// serial one.
func TestRaceForwardBatchVsMutators(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 22))
	net := &nn.Network{Name: "brace", InShape: []int{10},
		Layers: []nn.Layer{nn.NewDense(10, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	cfg := quietConfig(SchemeABN(8), 2)
	cfg.SpareRows = 8
	eng, err := Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layers := eng.Layers()
	xs := make([]*nn.Tensor, 6)
	for i := range xs {
		xs[i] = nn.NewTensor(10)
		for j := range xs[i].Data {
			xs[i].Data[j] = float64((i+j)%5) / 5
		}
	}

	const iters = 25
	var mut sync.WaitGroup
	stop := make(chan struct{})
	var traffic sync.WaitGroup

	for g := 0; g < 3; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			sess := eng.NewSession(uint64(200 + g))
			defer sess.Close()
			streams := make([]uint64, len(xs))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range streams {
					streams[j] = uint64(g*100_000 + i*100 + j)
				}
				outs, errs := sess.ForwardBatch(xs, streams)
				for j := range outs {
					if errs[j] != nil {
						t.Errorf("stream %d image %d: %v", g, j, errs[j])
						return
					}
				}
			}
		}(g)
	}

	mut.Add(1)
	go func() {
		defer mut.Done()
		mrng := stats.SubRNG(34, 1)
		for i := 0; i < iters; i++ {
			layer := layers[i%len(layers)]
			err := eng.WithArrays(layer, func(arrays []*crossbar.Array) {
				for _, a := range arrays {
					a.SetStuck(mrng.IntN(a.Rows), mrng.IntN(a.Cols), uint8(mrng.IntN(a.NumLevels())))
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; i < iters; i++ {
			if err := eng.Remap(layers[i%len(layers)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	mut.Add(1)
	go func() {
		defer mut.Done()
		srng := stats.SubRNG(35, 1)
		for i := 0; i < iters; i++ {
			layer := layers[(i+1)%len(layers)]
			err := eng.WithScrubTargets(layer, func(targets []ScrubTarget) {
				for _, tgt := range targets {
					a := tgt.Arr
					r := srng.IntN(a.Rows)
					for c := 0; c < a.Cols; c += 8 {
						a.ProgramVerify(r, c, a.Programmed(r, c), 3, tgt.PulseFail, srng)
					}
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; i < iters; i++ {
			layer := layers[i%len(layers)]
			if err := eng.SetFallback(layer, i%2 == 0); err != nil {
				t.Error(err)
				return
			}
			dev := cfg.Device
			dev.TempK = 350 + float64(i%60)
			if err := eng.Retune(dev); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	mut.Wait()
	close(stop)
	traffic.Wait()
}

// BenchmarkForwardBatch measures the warm batched forward at the serving
// batch size (16 images through the bench MLP shape) — the kernel the
// coalescing scheduler leans on. Allocs must stay at zero.
func BenchmarkForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	net := &nn.Network{Name: "bench", InShape: []int{16},
		Layers: []nn.Layer{nn.NewDense(16, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	cfg := DefaultConfig(SchemeABN(9))
	cfg.Device.BitsPerCell = 2
	eng, err := Map(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const B = 16
	xs := make([]*nn.Tensor, B)
	streams := make([]uint64, B)
	for i := range xs {
		xs[i] = nn.NewTensor(16)
		for j := range xs[i].Data {
			xs[i].Data[j] = float64((i*5+j)%13) / 13
		}
		streams[i] = uint64(i + 1)
	}
	sess := eng.NewSession(0)
	defer sess.Close()
	sess.ForwardBatch(xs, streams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := sess.ForwardBatch(xs, streams)
		if errs[0] != nil {
			b.Fatal(errs[0])
		}
	}
}

// TestLaneZeroInterleaving: single-image calls run on lane 0, which is also
// image 0's lane of every batch, so a session that interleaves ForwardBatch
// with Reseed+Forward — in either order — must return exactly the logits
// and stats of fresh sessions running each call alone.
func TestLaneZeroInterleaving(t *testing.T) {
	// A wide layer with giant-RTN-prone cells, so every image sees row
	// errors, corrections, detections and retries: any RNG state leaking
	// between lanes changes the stats.
	rng := rand.New(rand.NewPCG(8, 9))
	net := &nn.Network{Name: "wide", InShape: []int{256},
		Layers: []nn.Layer{nn.NewDense(256, 16, rng), &nn.ReLU{}, nn.NewDense(16, 4, rng)}}
	cfg := DefaultConfig(SchemeABN(9))
	cfg.Device.BitsPerCell = 2
	cfg.Device.GiantProneProb = 0.01
	eng, err := Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*nn.Tensor, 10)
	for i := range xs {
		xs[i] = nn.NewTensor(256)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	streams := []uint64{900, 901, 902, 903}
	type result struct {
		logits [][]float64
		stats  []Stats
	}
	single := func(s *Session) result {
		var r result
		for i, stream := range streams[:2] {
			s.Reseed(stream + 50)
			r.logits = append(r.logits, append([]float64(nil), s.Forward(xs[8+i]).Data...))
			r.stats = append(r.stats, s.DrainStats())
		}
		return r
	}
	batch := func(s *Session) result {
		var r result
		outs, errs := s.ForwardBatch(xs[:len(streams)], streams)
		for i, out := range outs {
			if errs[i] != nil {
				t.Fatalf("image %d: %v", i, errs[i])
			}
			r.logits = append(r.logits, append([]float64(nil), out.Data...))
			r.stats = append(r.stats, s.DrainBatchStats(i))
		}
		return r
	}
	check := func(what string, got, want result) {
		t.Helper()
		for i := range want.logits {
			for j, v := range want.logits[i] {
				if math.Float64bits(got.logits[i][j]) != math.Float64bits(v) {
					t.Fatalf("%s: image %d logit %d: %v, fresh session %v", what, i, j, got.logits[i][j], v)
				}
			}
			if got.stats[i] != want.stats[i] {
				t.Fatalf("%s: image %d stats %+v, fresh session %+v", what, i, got.stats[i], want.stats[i])
			}
		}
	}
	fresh := func() *Session {
		s := eng.NewSession(3)
		t.Cleanup(s.Close)
		return s
	}
	wantSingle, wantBatch := single(fresh()), batch(fresh())
	if wantSingle.stats[0].BatchMVMs != 0 || wantBatch.stats[0].BatchMVMs == 0 {
		t.Fatalf("BatchMVMs must count batched passes only: single %+v, batch %+v",
			wantSingle.stats[0], wantBatch.stats[0])
	}
	for _, st := range append(wantSingle.stats, wantBatch.stats...) {
		if st.RowErrors == 0 || st.Retries == 0 {
			t.Fatalf("engine too quiet to expose RNG leaks: %+v", st)
		}
	}

	s := fresh()
	check("batch first", batch(s), wantBatch)
	check("single after batch", single(s), wantSingle)

	s = fresh()
	check("single first", single(s), wantSingle)
	check("batch after single", batch(s), wantBatch)
	check("single after both", single(s), wantSingle)
}

// Benchmarks, one per paper artifact plus the hot-path primitives. Each
// table/figure bench runs a reduced-size instance of the same code path the
// mnnsim subcommand drives, so `go test -bench=.` exercises the full
// reproduction pipeline; EXPERIMENTS.md records the full-size runs.
package mnn

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
)

// --- Hot-path primitives -------------------------------------------------

func BenchmarkWordDivMod(b *testing.B) {
	w := core.Pow2Word(200)
	w.AddShifted(12345678, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = w.DivModU64(1011)
	}
}

func BenchmarkEncodeCorrectDecode(b *testing.B) {
	code, err := core.NewStaticCode(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	enc, _ := code.EncodeU64(40000)
	bad, _ := enc.Add(core.Pow2Word(9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fixed, _ := code.Correct(bad)
		_, _ = code.Decode(fixed)
	}
}

func BenchmarkRowSample(b *testing.B) {
	s, err := noise.NewRowSampler(noise.DefaultDeviceParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	counts := []int{32, 32, 32, 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SampleError(rng, counts)
	}
}

func BenchmarkDataAwareTableBuild(b *testing.B) {
	spec := core.DataAwareSpec{}
	for r := 0; r < 96; r++ {
		spec.Rows = append(spec.Rows, core.RowErr{
			BitOffset: 2 * r,
			StepProb:  [4]float64{1e-4 * float64(r%7+1), 1e-5, 1e-6, 1e-7},
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.BuildDataAwareTable(337, 3, spec)
	}
}

func BenchmarkASearchHardwareCandidates(b *testing.B) {
	spec := core.DataAwareSpec{}
	for r := 0; r < 96; r++ {
		spec.Rows = append(spec.Rows, core.RowErr{
			BitOffset: 2 * r,
			StepProb:  [4]float64{1e-4, 1e-5, 1e-6, 1e-7},
		})
	}
	cands := core.HardwareCandidateAs(9, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SearchA(9, 3, spec, cands)
	}
}

// benchMatrix maps an 8x112 matrix once and reuses it across iterations.
func benchMatrix(b *testing.B, s accel.Scheme, bits int) (*accel.MappedMatrix, []float64, *accel.Scratch) {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	W := make([]float64, 8*112)
	for i := range W {
		W[i] = rng.NormFloat64() * 0.01
	}
	cfg := accel.DefaultConfig(s)
	cfg.Device.BitsPerCell = bits
	m, err := accel.MapMatrix(cfg, 8, 112, func(r, c int) float64 { return W[r*112+c] }, 3)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 112)
	for i := range x {
		x[i] = rng.Float64()
	}
	return m, x, accel.NewScratch()
}

func BenchmarkNoisyMVMNoECC(b *testing.B) {
	m, x, scr := benchMatrix(b, accel.SchemeNoECC(), 2)
	rng := stats.NewFast(1)
	var st accel.Stats
	out := make([]float64, 8)
	m.MVMInto(out, x, rng, scr, &st) // warm the arena so the timed loop is allocation-free
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MVMInto(out, x, rng, scr, &st)
	}
}

func BenchmarkNoisyMVMABN9(b *testing.B) {
	m, x, scr := benchMatrix(b, accel.SchemeABN(9), 2)
	rng := stats.NewFast(1)
	var st accel.Stats
	out := make([]float64, 8)
	m.MVMInto(out, x, rng, scr, &st) // warm the arena so the timed loop is allocation-free
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MVMInto(out, x, rng, scr, &st)
	}
}

func BenchmarkMapMatrixABN9(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	W := make([]float64, 8*112)
	for i := range W {
		W[i] = rng.NormFloat64() * 0.01
	}
	cfg := accel.DefaultConfig(accel.SchemeABN(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := accel.MapMatrix(cfg, 8, 112, func(r, c int) float64 { return W[r*112+c] }, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-figure/table benches (reduced-size instances) --------------------

// benchWorkload is a small trained model reused by the experiment benches.
func benchWorkload(b *testing.B) expt.Workload {
	b.Helper()
	rng := rand.New(rand.NewPCG(3, 3))
	net := &nn.Network{Name: "bench", InShape: []int{16},
		Layers: []nn.Layer{nn.NewDense(16, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	var train, test []nn.Example
	for i := 0; i < 160; i++ {
		x := make([]float64, 16)
		label := i % 4
		for j := range x {
			x[j] = rng.Float64() * 0.3
		}
		x[label*4] += 0.8
		ex := nn.Example{Input: nn.FromSlice(x, 16), Label: label}
		if i < 120 {
			train = append(train, ex)
		} else {
			test = append(test, ex)
		}
	}
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 8
	nn.Train(net, train, cfg)
	return expt.Workload{Name: "bench", Net: net, Test: test}
}

// BenchmarkFig7RowTransient regenerates a shortened Figure 7 transient.
func BenchmarkFig7RowTransient(b *testing.B) {
	cfg := circuit.DefaultConfig()
	cfg.Duration = 0.02
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10MisclassSweep runs one fault-free Figure 10 cell
// (ABN-9 at 2 bits per cell) on the bench workload.
func BenchmarkFig10MisclassSweep(b *testing.B) {
	w := benchWorkload(b)
	dev := noise.DefaultDeviceParams()
	dev.BitsPerCell = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.EvaluateScheme(w, expt.EvalConfig{
			Device: dev, Scheme: accel.SchemeABN(9), Images: 20, Seed: 1, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11FaultSweep runs one faulty Figure 11 cell (0.1% stuck).
func BenchmarkFig11FaultSweep(b *testing.B) {
	w := benchWorkload(b)
	dev := noise.DefaultDeviceParams()
	dev.BitsPerCell = 2
	dev.FailureRate = 0.001
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.EvaluateScheme(w, expt.EvalConfig{
			Device: dev, Scheme: accel.SchemeABN(9), Images: 20, Seed: 1, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Sensitivity runs one Figure 12 sensitivity point.
func BenchmarkFig12Sensitivity(b *testing.B) {
	w := benchWorkload(b)
	dev := noise.DefaultDeviceParams()
	dev.BitsPerCell = 2
	dev.DeltaRLoFrac = 0.042
	dev.GiantDeltaR = 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.EvaluateScheme(w, expt.EvalConfig{
			Device: dev, Scheme: accel.SchemeABN(10), Images: 20, Seed: 1, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3MiniAlexNet runs a shrunken Table III point: the AlexNet
// stand-in architecture evaluated on a handful of images under ABN-9.
func BenchmarkTable3MiniAlexNet(b *testing.B) {
	net := nn.NewMiniAlexNet(1, 8)
	rng := rand.New(rand.NewPCG(2, 2))
	var test []nn.Example
	for i := 0; i < 4; i++ {
		x := nn.NewTensor(3, 32, 32)
		for j := range x.Data {
			x.Data[j] = rng.Float64()
		}
		test = append(test, nn.Example{Input: x, Label: i % 8})
	}
	w := expt.Workload{Name: "alex", Net: net, Test: test}
	dev := noise.DefaultDeviceParams()
	dev.BitsPerCell = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.EvaluateScheme(w, expt.EvalConfig{
			Device: dev, Scheme: accel.SchemeABN(9), Images: 2, Seed: 1, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4HWModel evaluates the hardware cost model.
func BenchmarkTable4HWModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = expt.RunTable4()
	}
}

// BenchmarkAblations runs the zero-guard ablation cell (the cheapest
// variant that exercises a distinct code path).
func BenchmarkAblations(b *testing.B) {
	w := benchWorkload(b)
	dev := noise.DefaultDeviceParams()
	dev.BitsPerCell = 2
	sch := accel.SchemeABN(9)
	sch.ZeroGuard = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.EvaluateScheme(w, expt.EvalConfig{
			Device: dev, Scheme: sch, Images: 10, Seed: 1, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBatch measures end-to-end scheduler throughput: a 16-image
// batch fanned across the session pool, at 1, 2, and 4 workers. The worker
// counts are fixed rather than derived from GOMAXPROCS so the subbenchmark
// names are the same on every machine and the alloc gate compares like with
// like. The reported images/sec is the serving-layer capacity of one
// replica.
func BenchmarkServeBatch(b *testing.B) {
	w := benchWorkload(b)
	cfg := accel.DefaultConfig(accel.SchemeABN(9))
	cfg.Device.BitsPerCell = 2
	eng, err := accel.Map(w.Net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	inputs := make([]*nn.Tensor, batch)
	for i := range inputs {
		inputs[i] = w.Test[i%len(w.Test)].Input
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sch, err := serve.NewScheduler(eng, serve.Config{Workers: workers, QueueDepth: 2 * batch,
				MaxBatch: batch, CoalesceWait: 200 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			defer sch.Close(context.Background())
			ctx := context.Background()
			// Warm the pool: session scratch and batch arenas grow on the
			// first passes; the steady state is what the gate pins.
			for i := 0; i < 3; i++ {
				if _, err := sch.PredictBatch(ctx, inputs, uint64(i)*batch+1, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sch.PredictBatch(ctx, inputs, uint64(i)*batch+1, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "images/sec")
		})
	}
}

// BenchmarkForwardBatch measures the batched bit-plane kernel alone: 16
// images per ForwardBatch call through one session, no scheduler in the
// loop. Warm batched forward must run allocation-free — the batch arena is
// grown once and reused — so this bench sits under the CI alloc gate.
func BenchmarkForwardBatch(b *testing.B) {
	w := benchWorkload(b)
	cfg := accel.DefaultConfig(accel.SchemeABN(9))
	cfg.Device.BitsPerCell = 2
	eng, err := accel.Map(w.Net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	xs := make([]*nn.Tensor, batch)
	streams := make([]uint64, batch)
	for i := range xs {
		xs[i] = w.Test[i%len(w.Test)].Input
		streams[i] = uint64(i + 1)
	}
	sess := eng.NewSession(0)
	defer sess.Close()
	warm := func() {
		outs, errs := sess.ForwardBatch(xs, streams)
		for i := range outs {
			if errs[i] != nil {
				b.Fatal(errs[i])
			}
			sess.DrainBatchStats(i)
		}
	}
	warm() // grow the batch arena before counting allocations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkShardPoolForwardBatch runs the same 16-image batch through a
// shard pool (layers partitioned into fault domains, 2 replicas per shard)
// instead of a bare session. Warm routing must stay allocation-free — the
// owner table and per-layer closures are built at session construction —
// so this bench sits under the CI alloc gate next to BenchmarkForwardBatch.
func BenchmarkShardPoolForwardBatch(b *testing.B) {
	w := benchWorkload(b)
	cfg := accel.DefaultConfig(accel.SchemeABN(9))
	cfg.Device.BitsPerCell = 2
	eng, err := accel.Map(w.Net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := shard.NewPool(eng, shard.Config{N: 2, Replicas: replica.Config{
		N:       2,
		Monitor: fault.MonitorConfig{Window: 4096, MinReads: 8, TripRate: 0.05},
	}})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	xs := make([]*nn.Tensor, batch)
	streams := make([]uint64, batch)
	for i := range xs {
		xs[i] = w.Test[i%len(w.Test)].Input
		streams[i] = uint64(i + 1)
	}
	sess := pool.NewSession(0)
	defer sess.Close()
	warm := func() {
		outs, errs := sess.ForwardBatch(xs, streams)
		for i := range outs {
			if errs[i] != nil {
				b.Fatal(errs[i])
			}
			sess.DrainBatchStats(i)
		}
	}
	warm() // grow every shard's batch arena before counting allocations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSoftwareForward is the float baseline for the MVM benches.
func BenchmarkSoftwareForward(b *testing.B) {
	w := benchWorkload(b)
	x := w.Test[0].Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Net.Forward(x)
	}
}

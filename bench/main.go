// Command mnnbench is the repository's benchmark. It runs one named
// workload against the public functions of the dataset, nn, accel, serve,
// fault and expt packages, checks every answer, and prints the workload's
// end-to-end metrics or, with --trace 1, its per-layer metrics. Run it
// through bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload serve-mlp1-closed --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/nn"
	"repro/internal/serve"
)

// Latency limits for goodput: about four service times for a single image,
// and the time a worker needs to clear a burst of 16 for bursts.
const (
	limitSingle = 250 * time.Millisecond
	limitBurst  = 1500 * time.Millisecond
)

// rate is the serving workloads' mean offered load in images per second.
const rate = 10

// maxLagShare bounds how late the load generator may send, as a share of
// the workload's latency limit: a run whose generator was later than that
// at the 95th percentile is refused, because a starved generator would
// read as a slow server. On 2 vCPUs the generator's p95 lag was up to 15
// ms on single-image traffic and 45 ms on bursts, from waiting for a CPU
// the workers hold.
const maxLagShare = 0.2

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so one set-up slowed by the host does not move it.
const setupRepeats = 3

// workload is one named benchmark input.
type workload struct {
	name  string
	net   string
	stuck float64 // map-time stuck-cell rate
	// burst is how many requests arrive together (serving workloads); 0
	// marks the offline Monte-Carlo workload.
	burst        int
	queue        int           // admission queue depth (0 = the scheduler's default)
	queueTimeout time.Duration // admission queue timeout (0 = the default)
	inject       bool          // apply the layer-1 stuck-at event mid-run
	// closed replaces the arrival schedule with one client per CPU, each
	// sending its next request as soon as the previous one is answered.
	closed bool
	limit  time.Duration // goodput latency limit
	// extra marks a workload that runs by name but is not in
	// BENCHMARK.json: between runs of the same code on a shared host its
	// timings spread past the bounds there (README.md).
	extra bool
}

var workloads = []workload{
	// The CPUs never idle here, so the host's scheduling of idle CPUs
	// does not reach the timings; it is the gated serving workload.
	{name: "serve-mlp1-closed", net: "MLP1", burst: 1, closed: true, limit: limitSingle},
	{name: "serve-mlp1-poisson", net: "MLP1", burst: 1, limit: limitSingle, extra: true},
	{name: "serve-mlp1-burst", net: "MLP1", burst: 16, queue: 64, limit: limitBurst, extra: true},
	// The queue holds the inline remap's backlog and the timeout outlasts
	// the stall, so the stall shows as latency, not as refusals.
	{name: "serve-mlp1-remap", net: "MLP1", burst: 1, queue: 64, queueTimeout: 30 * time.Second,
		inject: true, limit: limitSingle, extra: true},
	{name: "sim-cnn1-stuck", net: "CNN1", stuck: 0.001, limit: limitSingle},
}

func (w workload) serving() bool { return w.burst > 0 }

// events is how many arrivals a serving run of the given length has: the
// count that offers rate images per second, rounded up to whole bursts.
func (w workload) events(seconds int) int {
	return int(math.Ceil(float64(rate*seconds) / float64(w.burst)))
}

// images is the size of the workload's image pool. The closed loop cycles
// through missImages images, so the requests misclass_pct covers send each
// image once under every seed.
func (w workload) images(seconds int) int {
	switch {
	case w.closed:
		return missImages
	case w.serving():
		return w.events(seconds) * w.burst
	}
	return 1000
}

// schedConfig is mnnserve's default scheduler with the recovery ladder on,
// one worker per CPU, and the workload's queue settings.
func (w workload) schedConfig() serve.Config {
	return serve.Config{
		Workers: runtime.NumCPU(), QueueDepth: w.queue, QueueTimeout: w.queueTimeout,
		Recovery: serve.RecoveryConfig{Enabled: true},
	}
}

// metricDef is one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of the system sees. fail_pct is printed
// but not in the JSON result: it is 0 on a correct run, and the result's
// failed and attempted counts carry it.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"goodput_rps", "1/s", "higher"},
	{"img_per_s", "1/s", "higher"},
	{"misclass_pct", "%", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var failPct = metricDef{"fail_pct", "%", "lower"}

// benchLayers are the network layer indices the per-layer metrics name:
// MLP1 maps 1, 3 and 5, CNN1 maps 0, 3, 7, 9 and 11.
var benchLayers = []int{0, 1, 3, 5, 7, 9, 11}

// perLayerMetrics are the traced mode's metrics. A metric of a layer the
// workload does not have (CNN1's layer 0 on MLP1, the scheduler on the
// Monte-Carlo workload) reads 0.
func perLayerMetrics() []metricDef {
	ms, s, n, r := "ms", "s", "count", "ratio"
	out := []metricDef{{"setup.load_s", s, "lower"}, {"setup.map_s", s, "lower"}}
	for _, li := range benchLayers {
		out = append(out, metricDef{fmt.Sprintf("setup.map.L%d_s", li), s, "lower"})
	}
	out = append(out,
		metricDef{"setup.sched_s", s, "lower"},
		metricDef{"serve.queue_wait_p50_ms", ms, "lower"},
		metricDef{"serve.queue_wait_p95_ms", ms, "lower"},
		metricDef{"serve.infer_p50_ms", ms, "lower"},
		metricDef{"serve.infer_p95_ms", ms, "lower"},
		metricDef{"serve.batch_size_mean", n, "higher"},
		metricDef{"serve.coalesce_wait_mean_us", "us", "lower"},
		metricDef{"serve.batched_mvm_share", r, "higher"},
		metricDef{"serve.worker_busy_share", r, "lower"},
		metricDef{"serve.rejected", n, "lower"},
		metricDef{"serve.timed_out", n, "lower"},
		metricDef{"serve.ladder_retries", n, "lower"},
		metricDef{"serve.remaps", n, "lower"},
		metricDef{"serve.degrades", n, "lower"},
		metricDef{"serve.remap_stall_s", s, "lower"},
	)
	for _, li := range benchLayers {
		p := fmt.Sprintf("accel.L%d.", li)
		out = append(out,
			metricDef{p + "ms_per_mvm", ms, "lower"},
			metricDef{p + "mvms_per_img", n, "lower"},
			metricDef{p + "rowreads_per_mvm", n, "lower"},
			metricDef{p + "ns_per_rowread", "ns", "lower"},
			metricDef{p + "corrected_share", r, "lower"},
			metricDef{p + "detected_share", r, "lower"},
			metricDef{p + "retries_per_mvm", n, "lower"},
		)
	}
	return append(out,
		metricDef{"accel.forward_ms_per_img", ms, "lower"},
		metricDef{"accel.forward_batch16_ms_per_img", ms, "lower"},
		metricDef{"accel.rowreads_per_img", n, "lower"},
		metricDef{"nn.self_ms_per_img", ms, "lower"},
		metricDef{"loadgen.lag_p95_ms", ms, "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mnnbench:", err)
		os.Exit(1)
	}
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measured is everything one run found.
type measured struct {
	attempted, failed int
	problems          []string
	endToEnd, layer   map[string]float64
	digest            string
	checked           int
	lagP95            time.Duration
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mnnbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: arrival schedule, image order, noise streams")
	seconds := fs.Int("seconds", 40, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.net == "" {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	traced := *trace == 1
	prov, err := collectProvenance(w, *seed, *seconds, traced)
	if err != nil {
		return err
	}

	repeats := setupRepeats
	if traced {
		repeats = 1 // the traced run reports set-up steps, not setup_s
	}
	st, setups, err := setUpRepeated(w, *seed, w.images(*seconds), repeats)
	if err != nil {
		return err
	}
	defer st.close()
	tr := newTracer()
	m, err := measure(w, st, *seed, *seconds, traced, tr)
	if err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return err
	}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	m.endToEnd["setup_s"] = median(secs)
	m.endToEnd["peak_rss_mb"] = peakRSSMB()
	if maxLag := time.Duration(maxLagShare * float64(w.limit)); m.lagP95 > maxLag {
		m.problems = append(m.problems, fmt.Sprintf("run refused: load generator p95 lag %v exceeds %v", m.lagP95, maxLag))
	}

	res := result{Correct: m.failed == 0 && len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]value{}}
	defs := endToEndMetrics
	vals := m.endToEnd
	if traced {
		defs, vals = perLayerMetrics(), m.layer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}

	// The human-readable report, then the result line.
	fmt.Fprintf(stdout, "workload %s seed %d: %d attempted, %d failed, %d answers checked, generator p95 lag %v\n",
		w.name, *seed, m.attempted, m.failed, m.checked, m.lagP95)
	fmt.Fprintf(stdout, "answers sha256 %s\n", m.digest)
	for _, p := range m.problems {
		fmt.Fprintf(stdout, "PROBLEM: %s\n", p)
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), failPct) {
		fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", d.Name, m.endToEnd[d.Name], d.Unit)
	}
	if traced {
		for _, d := range perLayerMetrics() {
			fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", d.Name, m.layer[d.Name], d.Unit)
		}
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)
	if err := saveRun(w, *seed, traced, prov, m, tr); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("run incorrect: %d of %d operations failed; %v", m.failed, m.attempted, m.problems)
	}
	return nil
}

// measure runs the timed window, checks the answers and, when traced, the
// offline per-layer pass.
func measure(w workload, st *stack, seed uint64, seconds int, traced bool, tr *tracer) (*measured, error) {
	m := &measured{layer: map[string]float64{}}
	h := sha256.New()
	var xs []*nn.Tensor
	var streams []uint64
	if w.serving() {
		run := runServing(w, st, seed, seconds)
		var err error
		if m.endToEnd, err = run.endToEnd(w, st.test); err != nil {
			return nil, err
		}
		m.attempted = len(run.recs)
		m.failed, _, _ = run.failures()
		m.problems, m.checked = run.problems, run.preChecked+run.postChecked
		m.lagP95 = time.Duration(quantile(run.lags(), 0.95) * float64(time.Millisecond))
		for _, rec := range run.recs {
			p := rec.pred
			binary.Write(h, binary.LittleEndian, p.Seed)
			for _, c := range p.TopK {
				binary.Write(h, binary.LittleEndian, int64(c))
			}
			binary.Write(h, binary.LittleEndian, p.Stats)
		}
		if traced {
			for k, v := range run.serveLayer(runtime.NumCPU(), len(st.eng.Layers())) {
				m.layer[k] = v
			}
			run.spans(tr)
		}
		for _, r := range run.reqs[:batchImages] {
			xs, streams = append(xs, st.test[r.img].Input), append(streams, r.seed)
		}
	} else {
		run := runSim(st, seed, seconds)
		if err := run.check(st, seed); err != nil {
			return nil, err
		}
		var err error
		if m.endToEnd, err = run.endToEnd(w.limit); err != nil {
			return nil, err
		}
		m.attempted, m.failed, m.checked = len(run.images), run.failed(), run.checked
		for _, im := range run.images[:run.checked] {
			binary.Write(h, binary.LittleEndian, im.miss)
			binary.Write(h, binary.LittleEndian, im.stats)
		}
		if traced {
			run.spans(tr)
		}
		for i := 0; i < batchImages; i++ {
			xs, streams = append(xs, st.test[i].Input), append(streams, streamBase(seed)+uint64(i))
		}
	}
	m.digest = hex.EncodeToString(h.Sum(nil))
	if !traced {
		return m, nil
	}
	t := st.times
	m.layer["setup.load_s"], m.layer["setup.map_s"], m.layer["setup.sched_s"] =
		t.load.Seconds(), t.mapping.Seconds(), t.sched.Seconds()
	maps, err := mapLayerTimes(st)
	if err != nil {
		return nil, err
	}
	pass, err := runAccelPass(st.eng, xs, streams, tr)
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]float64{maps, pass.metrics()} {
		for k, v := range part {
			m.layer[k] = v
		}
	}
	if pass.mismatches > 0 {
		m.failed += pass.mismatches
		m.problems = append(m.problems, fmt.Sprintf("%d traced forwards differ from Session.Forward", pass.mismatches))
	}
	return m, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// saveRun writes the run's full record, and its spans when traced, under
// .bench_build in the checkout.
func saveRun(w workload, seed uint64, traced bool, prov provenance, m *measured, tr *tracer) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v", w.name, seed, traced))
	raw, err := json.MarshalIndent(map[string]any{
		"provenance": prov, "attempted": m.attempted, "failed": m.failed, "checked": m.checked,
		"problems": m.problems, "answers_sha256": m.digest,
		"end_to_end": m.endToEnd, "per_layer": m.layer,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	return tr.write(base + ".spans.jsonl")
}

package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/serve"
)

// served is one request as the load generator saw it.
type served struct {
	issued, answered time.Time
	pred             serve.Prediction
	err              error
}

// injection is the remap workload's fault event and what it set off.
type injection struct {
	at      int       // request index the event is applied before
	start   time.Time // when Runner.Advance was called
	remap   time.Time // when the scheduler's Remaps counter was first seen to move
	err     error
	applied int
}

// generate sends reqs open loop: each request is issued at its due time,
// t0+due, whatever the state of earlier ones, and its latency runs from
// that due time. When inj is set, its fault event is applied from its own
// goroutine at its request index, and the generator polls the scheduler
// until the remap it provokes has happened.
func generate(sched *serve.Scheduler, eng *accel.Engine, test []nn.Example, reqs []request,
	t0 time.Time, span time.Duration, inj *injection, camp fault.Campaign) (recs []served, spanEnd time.Time) {
	recs = make([]served, len(reqs))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var reqWG, injWG sync.WaitGroup
	stop := make(chan struct{})
	for i, r := range reqs {
		if d := time.Until(t0.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		if inj != nil && i == inj.at {
			injWG.Add(1)
			go func() {
				defer injWG.Done()
				inj.run(sched, eng, camp, stop)
			}()
		}
		reqWG.Add(1)
		go func(rec *served, x *nn.Tensor, seed uint64) {
			defer reqWG.Done()
			rec.issued = time.Now()
			rec.pred, rec.err = sched.Predict(ctx, x, seed, 0)
			rec.answered = time.Now()
		}(&recs[i], test[r.img].Input, r.seed)
	}
	// The window covers the whole schedule even when the last arrival comes
	// well before its end.
	time.Sleep(time.Until(t0.Add(span)))
	spanEnd = time.Now()
	reqWG.Wait()
	close(stop)
	injWG.Wait()
	return recs, spanEnd
}

// generateClosed runs one client per worker for span from t0: each client
// sends the next unsent request of reqs as soon as its previous one is
// answered. It returns the requests sent, each due when it was sent, and
// their records.
func generateClosed(sched *serve.Scheduler, test []nn.Example, reqs []request, clients int,
	t0 time.Time, span time.Duration) ([]request, []served, time.Time) {
	recs := make([]served, len(reqs))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	deadline := t0.Add(span)
	time.Sleep(time.Until(t0))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rec := &recs[i]
				rec.issued = time.Now()
				rec.pred, rec.err = sched.Predict(ctx, test[reqs[i].img].Input, reqs[i].seed, 0)
				rec.answered = time.Now()
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(reqs))
	sent := append([]request(nil), reqs[:n]...)
	for i := range sent {
		sent[i].due = recs[i].issued.Sub(t0)
	}
	return sent, recs[:n], deadline
}

// closedRate bounds a closed-loop run's request rate, per second of its
// window, so that its request pool is never used up.
const closedRate = 1000

// closedChecks is about how many of a closed-loop run's answers the output
// check compares with a reference, evenly spaced over the run: checking
// all of them would take as long as the window again.
const closedChecks = 300

// run applies the campaign's first step and waits for the remap.
func (inj *injection) run(sched *serve.Scheduler, eng *accel.Engine, camp fault.Campaign, stop <-chan struct{}) {
	base := sched.RecoveryCounters().Remaps
	runner, err := fault.NewRunner(camp, eng)
	if err != nil {
		inj.err = err
		return
	}
	inj.start = time.Now()
	evs, err := runner.Advance(1)
	inj.applied, inj.err = len(evs), err
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if sched.RecoveryCounters().Remaps > base {
			inj.remap = time.Now()
			return
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// remapCampaign is the remap workload's single event: 1% of layer 1's cells
// stuck at LRS, drawn from the workload seed.
func remapCampaign(seed uint64) fault.Campaign {
	return fault.Campaign{Seed: seed, Events: []fault.Event{
		{Step: 1, Layer: 1, Kind: fault.StuckLRS, Rate: 0.01},
	}}
}

// answer is what the output check compares: the class, the top-k and the
// request's own ECU tallies.
type answer struct {
	topK  []int
	stats accel.Stats
}

func (a answer) matches(p serve.Prediction) bool {
	return slices.Equal(a.topK, p.TopK) && a.stats == p.Stats && len(p.TopK) > 0 && p.Class == p.TopK[0]
}

// topK is the scheduler's default top-k, which every request uses.
const topK = 3

// refJob is one offline reference evaluation: an image under a stream.
type refJob struct {
	x    *nn.Tensor
	seed uint64
}

// reference evaluates jobs offline with Session.Reseed+Forward on eng,
// spread over one session per CPU; answers are in job order.
func reference(eng *accel.Engine, jobs []refJob) []answer {
	out := make([]answer, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < runtime.NumCPU(); wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			sess := eng.NewSession(uint64(wk))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				sess.Reseed(jobs[i].seed)
				sess.DrainStats()
				logits := sess.Forward(jobs[i].x)
				out[i] = answer{topK: logits.TopK(topK), stats: sess.DrainStats()}
			}
		}(wk)
	}
	wg.Wait()
	return out
}

// servingRun is a finished serving workload.
type servingRun struct {
	reqs    []request
	recs    []served
	t0      time.Time
	span    time.Duration // the schedule's length
	spanEnd time.Time     // when the generator saw the schedule end
	inj     *injection
	ok      []bool // answered, without error, and matching the reference
	// preChecked and postChecked count the answers compared with a
	// reference before the fault landed and after it (all of them when no
	// fault is injected).
	preChecked, postChecked int
	problems                []string
	batch                   [2]serve.BatchStatus      // before and after the timed window
	ladder                  [2]serve.RecoveryCounters // before and after the timed window
}

// runServing drives the timed window against st's scheduler and checks
// every answer it can attribute to one engine state.
func runServing(w workload, st *stack, seed uint64, seconds int) *servingRun {
	span := time.Duration(seconds) * time.Second
	var reqs []request
	if w.closed {
		reqs = closedPool(seed, closedRate*seconds, len(st.test))
	} else {
		reqs = schedule(seed, w.events(seconds), w.burst, span)
	}
	job := func(i int, s uint64) refJob { return refJob{x: st.test[reqs[i].img].Input, seed: s} }
	run := &servingRun{span: span}
	camp := remapCampaign(seed)
	var pre []answer
	if w.inject {
		// Answers served before the fault lands are checked against the
		// fresh engine, so their reference is taken before the window.
		run.inj = &injection{at: len(reqs) / 4}
		jobs := make([]refJob, run.inj.at)
		for i := range jobs {
			jobs[i] = job(i, reqs[i].seed)
		}
		pre = reference(st.eng, jobs)
	}
	run.batch[0], run.ladder[0] = st.sched.BatchStatus(), st.sched.RecoveryCounters()
	run.t0 = time.Now().Add(20 * time.Millisecond)
	if w.closed {
		reqs, run.recs, run.spanEnd = generateClosed(st.sched, st.test, reqs, runtime.NumCPU(), run.t0, run.span)
	} else {
		run.recs, run.spanEnd = generate(st.sched, st.eng, st.test, reqs, run.t0, run.span, run.inj, camp)
	}
	run.reqs = reqs
	if w.closed && len(reqs) == closedRate*seconds {
		run.problems = append(run.problems, "closed-loop request pool used up before the window closed")
	}
	run.batch[1], run.ladder[1] = st.sched.BatchStatus(), st.sched.RecoveryCounters()
	stride := 1
	if w.closed {
		stride = max(1, len(reqs)/closedChecks)
	}

	// Sort every answered request into the engine state that produced it.
	run.ok = make([]bool, len(reqs))
	var post []int
	var postJobs []refJob
	for i, rec := range run.recs {
		if rec.err != nil {
			continue
		}
		switch {
		case i%stride != 0:
			run.ok[i] = true // answered, not compared
		case run.inj == nil:
			post = append(post, i)
			postJobs = append(postJobs, job(i, rec.pred.Seed))
		case i < run.inj.at && rec.answered.Before(run.inj.start):
			run.preChecked++
			run.ok[i] = pre[i].matches(rec.pred) && rec.pred.Seed == reqs[i].seed
		case !run.inj.remap.IsZero() && (len(rec.pred.Remapped) > 0 ||
			rec.issued.Add(rec.pred.QueueWait).After(run.inj.remap)):
			post = append(post, i)
			postJobs = append(postJobs, job(i, rec.pred.Seed))
		default:
			// In flight while the fault landed or the layer was being
			// re-programmed: no single engine state to check against.
			run.ok[i] = true
		}
	}
	run.postChecked = len(post)
	for k, ref := range reference(st.eng, postJobs) {
		i := post[k]
		run.ok[i] = ref.matches(run.recs[i].pred) && (w.inject || run.recs[i].pred.Seed == reqs[i].seed)
	}
	run.problems = append(run.problems, run.verify()...)
	return run
}

// verify lists what makes the run incorrect beyond per-request mismatches.
func (run *servingRun) verify() []string {
	var out []string
	if run.inj == nil {
		if d := run.ladder[1].Retries - run.ladder[0].Retries; d != 0 {
			out = append(out, fmt.Sprintf("%d recovery-ladder retries on a fault-free engine", d))
		}
		return out
	}
	if run.inj.err != nil || run.inj.applied != 1 {
		out = append(out, fmt.Sprintf("fault event not applied (%d applied, err %v)", run.inj.applied, run.inj.err))
	}
	if d := run.ladder[1].Remaps - run.ladder[0].Remaps; d != 1 {
		out = append(out, fmt.Sprintf("want exactly 1 remap, got %d", d))
	}
	if d := run.ladder[1].Degrades - run.ladder[0].Degrades; d != 0 {
		out = append(out, fmt.Sprintf("want 0 degrades, got %d", d))
	}
	if run.preChecked == 0 || run.postChecked == 0 {
		out = append(out, fmt.Sprintf("output check needs answers from before the fault and after the remap (%d before, %d after)",
			run.preChecked, run.postChecked))
	}
	return out
}

// failures counts refused, timed-out, errored and mismatched requests.
func (run *servingRun) failures() (failed, rejected, timedOut int) {
	for i, rec := range run.recs {
		switch {
		case errors.Is(rec.err, serve.ErrQueueFull):
			rejected++
		case errors.Is(rec.err, serve.ErrQueueTimeout):
			timedOut++
		}
		if !run.ok[i] {
			failed++
		}
	}
	return failed, rejected, timedOut
}

// window runs from the start of the schedule to its end as the generator
// saw it, or to the last answer when that came later.
func (run *servingRun) window() time.Duration {
	last := run.spanEnd
	for _, rec := range run.recs {
		if rec.answered.After(last) {
			last = rec.answered
		}
	}
	return last.Sub(run.t0)
}

// endToEnd computes the serving workload's user-facing metrics.
func (run *servingRun) endToEnd(w workload, test []nn.Example) (map[string]float64, error) {
	ops := make([]outcome, len(run.recs))
	var lat []float64
	miss, classified := 0, 0
	for i, rec := range run.recs {
		d := rec.answered.Sub(run.t0.Add(run.reqs[i].due))
		ops[i] = outcome{ok: run.ok[i] && rec.err == nil, latency: d}
		if rec.err == nil {
			lat = append(lat, ms(d))
			if !w.closed || i < missImages {
				classified++
				if rec.pred.Class != test[run.reqs[i].img].Label {
					miss++
				}
			}
		}
	}
	if w.closed && len(run.recs) < missImages {
		return nil, fmt.Errorf("misclass_pct needs %d requests; the window fit %d", missImages, len(run.recs))
	}
	p95, err := tail(lat, 0.95)
	if err != nil {
		return nil, err
	}
	failed, _, _ := run.failures()
	win := run.window()
	return map[string]float64{
		"p50_ms":       quantile(lat, 0.5),
		"p95_ms":       p95,
		"goodput_rps":  goodput(ops, w.limit, win),
		"img_per_s":    float64(len(lat)) / win.Seconds(),
		"misclass_pct": pct(miss, classified),
		"fail_pct":     pct(failed, len(run.recs)),
	}, nil
}

// lags returns how late the generator issued each request, in ms.
func (run *servingRun) lags() []float64 {
	out := make([]float64, len(run.recs))
	for i, rec := range run.recs {
		out[i] = ms(rec.issued.Sub(run.t0.Add(run.reqs[i].due)))
	}
	return out
}

// serveLayer computes the serve-layer and load-generator metrics.
func (run *servingRun) serveLayer(workers, layers int) map[string]float64 {
	var qw, inf []float64
	var starts []int64
	var infers []time.Duration
	for _, rec := range run.recs {
		if rec.err != nil {
			continue
		}
		qw = append(qw, ms(rec.pred.QueueWait))
		inf = append(inf, ms(rec.pred.Infer))
		starts = append(starts, rec.issued.Add(rec.pred.QueueWait).UnixNano())
		infers = append(infers, rec.pred.Infer)
	}
	b0, b1 := run.batch[0], run.batch[1]
	l0, l1 := run.ladder[0], run.ladder[1]
	passes := float64(b1.Batches - b0.Batches)
	_, rejected, timedOut := run.failures()
	m := map[string]float64{
		"serve.queue_wait_p50_ms":     quantile(qw, 0.5),
		"serve.queue_wait_p95_ms":     quantile(qw, 0.95),
		"serve.infer_p50_ms":          quantile(inf, 0.5),
		"serve.infer_p95_ms":          quantile(inf, 0.95),
		"serve.batch_size_mean":       float64(b1.SizeSum-b0.SizeSum) / max(passes, 1),
		"serve.coalesce_wait_mean_us": (b1.WaitSum - b0.WaitSum) / max(passes, 1) * 1e6,
		"serve.batched_mvm_share":     float64(b1.BatchMVMs-b0.BatchMVMs) / float64(max(len(qw)*layers, 1)),
		"serve.worker_busy_share":     passBusy(starts, infers, time.Millisecond).Seconds() / (float64(workers) * run.window().Seconds()),
		"serve.rejected":              float64(rejected),
		"serve.timed_out":             float64(timedOut),
		"serve.ladder_retries":        float64(l1.Retries - l0.Retries),
		"serve.remaps":                float64(l1.Remaps - l0.Remaps),
		"serve.degrades":              float64(l1.Degrades - l0.Degrades),
		"loadgen.lag_p95_ms":          quantile(run.lags(), 0.95),
	}
	if run.inj != nil && !run.inj.remap.IsZero() {
		m["serve.remap_stall_s"] = run.inj.remap.Sub(run.inj.start).Seconds()
	}
	return m
}

// spans turns the generator's records into request spans with their queue
// and inference children.
func (run *servingRun) spans(tr *tracer) {
	for _, rec := range run.recs {
		id := tr.add(0, "loadgen.request", rec.issued, rec.answered)
		if rec.err != nil {
			continue
		}
		start := rec.issued.Add(rec.pred.QueueWait)
		tr.add(id, "serve.queue_wait", rec.issued, start)
		tr.add(id, "serve.infer", start, start.Add(rec.pred.Infer))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

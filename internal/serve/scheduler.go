package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/replica"
	"repro/internal/shard"
)

// Admission and lifecycle errors. The HTTP layer maps ErrQueueFull to 429
// and ErrQueueTimeout/ErrClosed to 503.
var (
	ErrQueueFull    = errors.New("serve: admission queue full")
	ErrQueueTimeout = errors.New("serve: request timed out waiting for a worker")
	ErrClosed       = errors.New("serve: scheduler closed")
)

// Prediction is the outcome of one image inference, including the ECU
// activity it alone caused.
type Prediction struct {
	// Class is the argmax class under the noisy hardware.
	Class int
	// TopK are the highest-scoring classes in descending order.
	TopK []int
	// Seed is the noise-stream id the session was reseeded with; replaying
	// the same seed against the same engine reproduces this result exactly.
	Seed uint64
	// Stats are the ECU and row-error tallies of this request only.
	Stats accel.Stats
	// QueueWait is how long the request sat in the admission queue.
	QueueWait time.Duration
	// Infer is the worker-side evaluation time.
	Infer time.Duration
	// LadderRetries is how many recovery re-evaluations this request
	// consumed (rung 1 of the ladder).
	LadderRetries int
	// Remapped lists layers re-programmed onto spare arrays while
	// recovering this request (rung 2).
	Remapped []int
	// Degraded lists the layers this answer was served from the software
	// fixed-point fallback instead of crossbars — the accuracy-loss
	// warning of rung 3.
	Degraded []int
}

type jobResult struct {
	pred Prediction
	err  error
}

// job is one queued image. resp is buffered so a worker never blocks on a
// caller that gave up.
type job struct {
	ctx      context.Context
	input    *nn.Tensor
	seed     uint64
	topK     int
	enqueued time.Time
	resp     chan jobResult
}

// autoSeedBase offsets scheduler-assigned stream ids away from the low
// range clients typically use for explicit, reproducible seeds.
const autoSeedBase = uint64(1) << 32

// session is a worker's evaluation stream — satisfied by accel.Session
// (single copy), replica.Session (routed set), and shard.Session (shard
// pool): single-image evaluation with per-request stat drains, plus one
// multi-image pass over the mapped arrays with per-image noise lanes and
// per-image drains.
type session interface {
	Reseed(stream uint64)
	DrainStats() accel.Stats
	DrainLayerStatsInto(out map[int]accel.Stats)
	Forward(x *nn.Tensor) *nn.Tensor
	ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error)
	DrainBatchStats(i int) accel.Stats
	DrainBatchLayerStatsInto(i int, out map[int]accel.Stats)
	Close()
}

// workerState is one worker's owned session.
type workerState struct {
	sess session
	// perLayer is the worker's reusable per-request layer-stats map; the
	// monitor's Observe only reads it, so one map per worker suffices.
	perLayer map[int]accel.Stats
	// batch-gather scratch, reused across coalesced batches.
	bxs      []*nn.Tensor
	bstreams []uint64
	bjobs    []*job
	// timer is the reusable CoalesceWait timer (allocating one per pass
	// would put the scheduler loop back on the allocator).
	timer *time.Timer
}

// Scheduler owns a fixed pool of accel.Session workers fed by a bounded
// admission queue. Each worker reseeds its session per request id, so
// results are independent of placement and arrival order. With recovery
// enabled, workers also feed per-layer ECU outcomes to a health monitor
// and climb the retry → remap → degrade ladder when a breaker trips.
type Scheduler struct {
	cfg      Config
	eng      *accel.Engine
	queue    chan *job
	wg       sync.WaitGroup
	mu       sync.RWMutex // guards closed vs. in-flight queue sends
	closed   bool
	autoSeed atomic.Uint64

	rec   *recoveryState
	escMu sync.Mutex // serializes ladder escalations across workers

	// set is the replica set fronting the engine (nil when Replicas.N <= 1;
	// the single-copy path is then exactly the pre-replica scheduler).
	set *replica.Set

	// pool is the shard pool fronting the engine (nil when Shards == 0).
	// With it set, layer MVMs route to per-shard replica sets and the
	// ladder escalates per fault domain; set stays nil.
	pool *shard.Pool

	// pat is the background patrol scrubber (nil when disabled).
	pat *patroller

	// ctl is the closed-loop protection controller (nil when disabled).
	ctl *controller

	// per is the crash-consistency snapshotter (nil when persistence is
	// disabled).
	per *persister

	// camp is the fault-campaign runner registered via SetCampaign, so
	// snapshots capture its cursor (nil when no campaign drives the pool).
	campMu sync.Mutex
	camp   *fault.Runner

	served   atomic.Uint64 // requests answered (success or error)
	canceled atomic.Uint64 // requests whose client vanished while queued
	inflight atomic.Int64  // dequeued but not yet answered
	ecc      accel.SharedStats
	bat      batchTelemetry
}

// NewScheduler starts the worker pool over a mapped engine.
func NewScheduler(eng *accel.Engine, cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rec, err := newRecoveryState(cfg.Recovery)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		cfg.Recovery = rec.cfg
	}
	s := &Scheduler{cfg: cfg, eng: eng, queue: make(chan *job, cfg.QueueDepth), rec: rec}
	switch {
	case cfg.Shards > 0:
		pool, err := shard.NewPool(eng, shard.Config{N: cfg.Shards, Replicas: cfg.Replicas})
		if err != nil {
			return nil, err
		}
		s.pool = pool
	case cfg.Replicas.N > 1:
		set, err := replica.NewSet(eng, cfg.Replicas)
		if err != nil {
			return nil, err
		}
		s.set = set
	}
	// Assemble every subsystem before starting any goroutine, so the
	// boot-time restore owns the whole pool and either applies a snapshot
	// completely or refuses it completely — traffic and background loops
	// never see a half-restored engine.
	if cfg.Scrub.Enabled {
		s.pat = newPatroller(s, cfg.Scrub)
	}
	if cfg.Controller.Enabled {
		s.ctl = newController(s, cfg.Controller)
	}
	if cfg.Persist.Dir != "" {
		s.per = newPersister(s, cfg.Persist)
		if err := s.per.bootRestore(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(uint64(i))
	}
	if s.pat != nil {
		s.pat.start()
	}
	if s.ctl != nil {
		s.ctl.start()
	}
	if s.per != nil {
		s.per.start()
	}
	return s, nil
}

// ApplyEnv retunes every programmed copy to an environment-adjusted device
// model — the scenario engine's actuator. With a replica set, all copies
// share the environment; without one, only the primary exists.
func (s *Scheduler) ApplyEnv(dev noise.DeviceParams) error {
	if s.pool != nil {
		return s.pool.Retune(dev)
	}
	if s.set != nil {
		return s.set.Retune(dev)
	}
	return s.eng.Retune(dev)
}

// Engine returns the mapped engine the pool evaluates against (the primary
// replica when replication is on).
func (s *Scheduler) Engine() *accel.Engine { return s.eng }

// ReplicaSet returns the replica set fronting the pool, nil when the pool
// serves a single copy.
func (s *Scheduler) ReplicaSet() *replica.Set { return s.set }

// ShardPool returns the shard pool fronting the engine, nil when the
// scheduler serves an unsharded topology.
func (s *Scheduler) ShardPool() *shard.Pool { return s.pool }

// Canceled returns how many admitted requests were dropped because their
// client disconnected while they sat in the queue.
func (s *Scheduler) Canceled() uint64 { return s.canceled.Load() }

// newSession builds one worker's evaluation stream: a shard-routed session
// when the pool is sharded, a routed replica session when replication is
// on, the engine's own session otherwise.
func (s *Scheduler) newSession(id uint64) session {
	if s.pool != nil {
		return s.pool.NewSession(id)
	}
	if s.set != nil {
		return s.set.NewSession(id)
	}
	return s.eng.NewSession(id)
}

// Workers returns the resolved session-pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// QueueLen returns the current admission-queue depth (metrics gauge).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// QueueDepth returns the admission-queue capacity.
func (s *Scheduler) QueueDepth() int { return s.cfg.QueueDepth }

// Served returns how many requests have been answered so far — the logical
// wear clock fault campaigns advance on.
func (s *Scheduler) Served() uint64 { return s.served.Load() }

// Predict runs one image through the pool: admit (ErrQueueFull on
// backpressure), wait for a worker, evaluate. seed selects the noise
// stream; 0 asks the scheduler to assign a fresh one. topK 0 uses the
// configured default.
func (s *Scheduler) Predict(ctx context.Context, input *nn.Tensor, seed uint64, topK int) (Prediction, error) {
	j, err := s.submit(ctx, input, seed, topK)
	if err != nil {
		return Prediction{}, err
	}
	select {
	case r := <-j.resp:
		return r.pred, r.err
	case <-ctx.Done():
		return Prediction{}, ctx.Err()
	}
}

// PredictBatch fans a batch across the pool and gathers results in input
// order. Entry i uses noise stream baseSeed+i (baseSeed 0 = assign). If any
// entry is refused admission the whole batch fails with that error, after
// the already-admitted entries finish.
func (s *Scheduler) PredictBatch(ctx context.Context, inputs []*nn.Tensor, baseSeed uint64, topK int) ([]Prediction, error) {
	jobs := make([]*job, 0, len(inputs))
	var admitErr error
	for i, in := range inputs {
		var seed uint64
		if baseSeed != 0 {
			seed = baseSeed + uint64(i)
		}
		j, err := s.submit(ctx, in, seed, topK)
		if err != nil {
			admitErr = err
			break
		}
		jobs = append(jobs, j)
	}
	out := make([]Prediction, 0, len(jobs))
	firstErr := admitErr
	for _, j := range jobs {
		select {
		case r := <-j.resp:
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			out = append(out, r.pred)
		case <-ctx.Done():
			// Remaining responses land in buffered channels and are
			// garbage collected; the workers are not blocked.
			if firstErr == nil {
				firstErr = ctx.Err()
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// submit admits one job or reports backpressure without blocking.
func (s *Scheduler) submit(ctx context.Context, input *nn.Tensor, seed uint64, topK int) (*job, error) {
	if seed == 0 {
		seed = autoSeedBase + s.autoSeed.Add(1)
	}
	j := &job{ctx: ctx, input: input, seed: seed, topK: topK,
		enqueued: time.Now(), resp: make(chan jobResult, 1)}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	select {
	case s.queue <- j:
		return j, nil
	default:
		return nil, ErrQueueFull
	}
}

// worker is one evaluation stream: it owns a session and serves queued jobs
// until the queue is closed and drained. It coalesces whatever is already
// queued (plus an optional CoalesceWait window) into one multi-image
// layer-MVM pass, up to MaxBatch images.
func (s *Scheduler) worker(id uint64) {
	defer s.wg.Done()
	w := &workerState{sess: s.newSession(id), perLayer: make(map[int]accel.Stats)}
	defer w.sess.Close()
	maxB := s.cfg.MaxBatch
	batch := make([]*job, 0, maxB)
	live := make([]*job, 0, maxB)
	for j := range s.queue {
		batch = append(batch[:0], j)
		s.inflight.Add(1)
		if s.cfg.dequeueHook != nil {
			s.cfg.dequeueHook()
		}
		coalesceStart := time.Now()
		s.coalesce(w, &batch, maxB)
		s.bat.observe(len(batch), time.Since(coalesceStart))

		// Per-job admission filtering: a vanished client or an overaged job
		// is answered without spending crossbar reads, exactly as before.
		start := time.Now()
		live = live[:0]
		for _, jb := range batch {
			if jb.ctx != nil && jb.ctx.Err() != nil {
				// The client vanished while the job was queued: no session
				// slot is spent on it and it does not count as served — only
				// the cancellation tally moves.
				s.canceled.Add(1)
				jb.resp <- jobResult{err: jb.ctx.Err()}
				s.inflight.Add(-1)
				continue
			}
			if start.Sub(jb.enqueued) > s.cfg.QueueTimeout {
				s.answer(jb, jobResult{err: ErrQueueTimeout})
				continue
			}
			live = append(live, jb)
		}
		if len(live) > 1 {
			s.serveBatch(w, live, start)
			continue
		}
		for _, jb := range live {
			s.serveOne(w, jb, start)
		}
	}
}

// coalesce greedily drains already-queued jobs into the batch, then — when
// CoalesceWait is set and the batch is not full — holds the batch open for
// late batchmates. The dequeue hook fires once per job.
func (s *Scheduler) coalesce(w *workerState, batch *[]*job, maxB int) {
	for len(*batch) < maxB {
		select {
		case jb, ok := <-s.queue:
			if !ok {
				return
			}
			*batch = append(*batch, jb)
			s.inflight.Add(1)
			if s.cfg.dequeueHook != nil {
				s.cfg.dequeueHook()
			}
		default:
			if s.cfg.CoalesceWait <= 0 {
				return
			}
			s.coalesceWait(w, batch, maxB)
			return
		}
	}
}

// coalesceWait is the blocking tail of coalesce: wait up to CoalesceWait
// for more jobs, leaving early when the batch fills. The worker's timer is
// reused across passes.
func (s *Scheduler) coalesceWait(w *workerState, batch *[]*job, maxB int) {
	if w.timer == nil {
		w.timer = time.NewTimer(s.cfg.CoalesceWait)
	} else {
		w.timer.Reset(s.cfg.CoalesceWait)
	}
	defer func() {
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
	}()
	for len(*batch) < maxB {
		select {
		case jb, ok := <-s.queue:
			if !ok {
				return
			}
			*batch = append(*batch, jb)
			s.inflight.Add(1)
			if s.cfg.dequeueHook != nil {
				s.cfg.dequeueHook()
			}
		case <-w.timer.C:
			return
		}
	}
}

// serveOne evaluates one job alone and answers it.
func (s *Scheduler) serveOne(w *workerState, j *job, start time.Time) {
	pred, err := s.serveJob(w, j)
	if err == nil {
		pred.QueueWait = start.Sub(j.enqueued)
		pred.Infer = time.Since(start)
		s.ecc.Add(pred.Stats)
	}
	s.answer(j, jobResult{pred: pred, err: err})
}

// serveBatch evaluates a coalesced batch in one multi-image pass. Per-image
// guarantees survive coalescing: each image keeps its own noise stream and
// per-lane stats, a failed image is re-evaluated alone by serveOne (which owns
// the recovery ladder) without disturbing batchmates, and a post-batch
// breaker trip climbs the same retry → remap → degrade ladder a lone
// request would.
func (s *Scheduler) serveBatch(w *workerState, jobs []*job, start time.Time) {
	if s.cfg.batchHook != nil {
		s.cfg.batchHook(jobs)
	}
	w.bxs, w.bstreams, w.bjobs = w.bxs[:0], w.bstreams[:0], w.bjobs[:0]
	for _, j := range jobs {
		// A client can vanish between the dequeue-time filter and here — a
		// coalesce wait, or batchmates' ladder work on this worker's previous
		// pass. Dropping the job now keeps the multi-image pass from burning
		// a lane on an answer nobody reads, and keeps its MVMs out of the
		// batch telemetry.
		if j.ctx != nil && j.ctx.Err() != nil {
			s.canceled.Add(1)
			j.resp <- jobResult{err: j.ctx.Err()}
			s.inflight.Add(-1)
			continue
		}
		w.bjobs = append(w.bjobs, j)
		w.bxs = append(w.bxs, j.input)
		w.bstreams = append(w.bstreams, j.seed)
	}
	jobs = w.bjobs
	switch len(jobs) {
	case 0:
		return
	case 1:
		// A lone survivor is served alone — same answer, no batch
		// machinery.
		s.serveOne(w, jobs[0], start)
		return
	}
	outs, errs := s.forwardBatch(w.sess, w.bxs, w.bstreams)
	for i, j := range jobs {
		failed := outs == nil || outs[i] == nil || (errs != nil && errs[i] != nil)
		if failed {
			// Discard the lane's partial stats, then let serveOne —
			// ladder included — re-evaluate this image alone. Batchmates'
			// outputs live in their own lanes and are untouched.
			w.sess.DrainBatchStats(i)
			s.serveOne(w, j, start)
			continue
		}
		k := j.topK
		if k <= 0 {
			k = s.cfg.TopK
		}
		topk := outs[i].TopK(k)
		w.sess.DrainBatchLayerStatsInto(i, w.perLayer)
		pred := Prediction{Class: topk[0], TopK: topk, Seed: j.seed, Stats: w.sess.DrainBatchStats(i)}
		var err error
		if s.rec != nil {
			if open := s.rec.mon.Observe(w.perLayer); len(open) > 0 {
				pred, err = s.recover(w, j, open)
			}
		}
		if err == nil {
			if sick := s.openReplicaLayers(); len(sick) > 0 {
				s.maintainReplicas(sick)
			}
			if pred.Stats.SoftMVMs > 0 {
				pred.Degraded = s.eng.DegradedLayers()
			}
			pred.QueueWait = start.Sub(j.enqueued)
			pred.Infer = time.Since(start)
			s.ecc.Add(pred.Stats)
			// BatchMVMs marks which path served the image — pool telemetry,
			// not part of the answer. Stripping it keeps the per-request
			// Stats a pure function of (engine, seed), identical whether the
			// image was coalesced or served alone.
			pred.Stats.BatchMVMs = 0
		}
		s.answer(j, jobResult{pred: pred, err: err})
	}
}

// forwardBatch shields the pool from a coordinator-side panic: when the
// batched pass itself blows up, every image is reported failed and retried
// alone by the caller.
func (s *Scheduler) forwardBatch(sess session, xs []*nn.Tensor, streams []uint64) (outs []*nn.Tensor, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			outs, errs = nil, nil
		}
	}()
	return sess.ForwardBatch(xs, streams)
}

// answer delivers one result and updates the drain accounting.
func (s *Scheduler) answer(j *job, r jobResult) {
	j.resp <- r
	s.served.Add(1)
	s.inflight.Add(-1)
}

// serveJob evaluates one request and, when recovery is enabled, feeds the
// health monitor and climbs the ladder if this request's ECU outcomes
// tripped a breaker.
func (s *Scheduler) serveJob(w *workerState, j *job) (Prediction, error) {
	pred, perLayer, err := s.evaluateSeed(w, j, j.seed)
	if err != nil || s.rec == nil {
		return pred, err
	}
	if open := s.rec.mon.Observe(perLayer); len(open) > 0 {
		pred, err = s.recover(w, j, open)
		if err != nil {
			return pred, err
		}
	}
	// The router keeps answers clean by steering around a sick replica,
	// which also keeps the damage below the request-level trip rate — so
	// degraded redundancy must be polled from the per-replica breakers, not
	// inferred from this request's stats.
	if sick := s.openReplicaLayers(); len(sick) > 0 {
		s.maintainReplicas(sick)
	}
	if pred.Stats.SoftMVMs > 0 {
		pred.Degraded = s.eng.DegradedLayers()
	}
	return pred, nil
}

// evaluateSeed runs one inference on the worker's session under an explicit
// noise stream, converting panics (malformed tensors reaching the MVM
// layer) into errors so one bad request cannot take the pool down. It
// returns the request's own stats, total and per layer.
func (s *Scheduler) evaluateSeed(w *workerState, j *job, seed uint64) (pred Prediction, perLayer map[int]accel.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: inference failed: %v", r)
		}
	}()
	sess := w.sess
	sess.Reseed(seed)
	sess.DrainStats()
	logits := sess.Forward(j.input)
	k := j.topK
	if k <= 0 {
		k = s.cfg.TopK
	}
	topk := logits.TopK(k)
	sess.DrainLayerStatsInto(w.perLayer)
	return Prediction{Class: topk[0], TopK: topk, Seed: seed, Stats: sess.DrainStats()}, w.perLayer, nil
}

// DrainSummary reports what a Close drained — and what it had to abandon
// when its deadline fired first.
type DrainSummary struct {
	// Served is the lifetime count of answered requests.
	Served uint64
	// Abandoned is how many admitted requests were still queued or in
	// flight when the drain deadline expired (0 on a clean drain).
	Abandoned int
	// Canceled is how many admitted requests were dropped unserved because
	// their client disconnected while they waited in the queue.
	Canceled uint64
	// ECC is the cumulative ECU activity of every successfully answered
	// request.
	ECC accel.Stats
}

// Close stops admission, drains the queue (every admitted request is still
// answered), and waits for the workers. When ctx expires mid-drain it
// returns ctx's error together with a partial summary counting the
// requests left behind, so operators still see what the pool did.
func (s *Scheduler) Close(ctx context.Context) (DrainSummary, error) {
	// Halt the controller first (it turns the patroller's knobs), then the
	// patroller: a patrol pass holds a layer write lock, and draining
	// workers must not compete with background repairs on the way out.
	if s.ctl != nil {
		s.ctl.halt()
	}
	if s.pat != nil {
		s.pat.halt()
	}
	if s.per != nil {
		s.per.haltLoop()
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Drain finished: flush a final snapshot so a restart resumes from
		// the last answered request, not the last periodic checkpoint.
		// Failure is recorded in PersistStatus, not returned — the drain
		// itself succeeded.
		if s.per != nil {
			_ = s.per.snapshotOnce()
		}
		return DrainSummary{
			Served:   s.served.Load(),
			Canceled: s.canceled.Load(),
			ECC:      s.ecc.Snapshot(),
		}, nil
	case <-ctx.Done():
		// Deadline expired mid-drain: still flush — workers may be live, but
		// every subsystem snapshot is taken under its own lock, so the file
		// is crash-consistent just like a periodic checkpoint.
		if s.per != nil {
			_ = s.per.snapshotOnce()
		}
		abandoned := s.QueueLen() + int(s.inflight.Load())
		return DrainSummary{
			Served:    s.served.Load(),
			Abandoned: abandoned,
			Canceled:  s.canceled.Load(),
			ECC:       s.ecc.Snapshot(),
		}, ctx.Err()
	}
}

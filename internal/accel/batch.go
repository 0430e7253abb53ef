package accel

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/nn"
	"repro/internal/stats"
)

// batchLane is one evaluation slot of a session: its noise RNG, its
// private scratch arena, and its stats. Lane 0 serves single-image calls;
// lane i serves image i of a batch, so image i's evaluation stays a pure
// function of (engine, its stream) regardless of batchmates.
type batchLane struct {
	src *rand.PCG
	rng *stats.FastRand
	scr *Scratch
	// stats is the lane total; lane 0's points at Session.Stats.
	stats *Stats
	// layer is indexed by layer position.
	layer []Stats
}

// laneArena is a session's lane set plus the gather buffers of the lane
// dispatch. It grows with the largest batch seen and never shrinks, so
// steady-state traffic allocates nothing.
type laneArena struct {
	lanes []*batchLane

	// per-call gather state (valid during one dispatch)
	outs  [][]float64
	errs  []error
	diffs []Stats
	ims   []BatchImage
	// one holds MVMLanes' arguments for a single image on lane 0.
	one struct {
		idx   [1]int
		xs    [1][]float64
		outs  [1][]float64
		diffs [1]Stats
	}
}

// newLane builds a lane drawing from stream seed and totalling into st.
func (s *Session) newLane(seed uint64, st *Stats) *batchLane {
	src := stats.SubPCG(s.engine.cfg.Seed, seed)
	return &batchLane{src: src, rng: stats.NewFastRand(src), scr: NewScratch(),
		stats: st, layer: make([]Stats, len(s.engine.slots))}
}

// lanesFor grows the arena to at least n lanes.
func (s *Session) lanesFor(n int) []*batchLane {
	for len(s.ba.lanes) < n {
		s.ba.lanes = append(s.ba.lanes, s.newLane(0, &Stats{}))
	}
	return s.ba.lanes[:n]
}

func (ba *laneArena) outsFor(n int) ([][]float64, []Stats) {
	if cap(ba.outs) < n {
		ba.outs = make([][]float64, n)
		ba.diffs = make([]Stats, n)
	}
	return ba.outs[:n], ba.diffs[:n]
}

func (ba *laneArena) errsFor(n int) []error {
	if cap(ba.errs) < n {
		ba.errs = make([]error, n)
	}
	ba.errs = ba.errs[:n]
	clear(ba.errs)
	return ba.errs
}

// MVMLanes evaluates one mapped layer for several lanes in a single pass
// over the layer's arrays — the one dispatch behind Forward, MVMLayer,
// ForwardBatch, and the replica router. idx[j] selects the lane evaluating
// xs[j] (distinct lanes; the arena grows to cover them); when streams is
// non-nil, streams[j] first reseeds that lane exactly as Reseed reseeds
// lane 0. outs[j] receives the output, aliasing the lane's arena and valid
// until that lane's next MVM, and diffs[j] this call's ECU stats, which
// also merge into the lane's totals. batched marks a multi-image pass and
// counts Stats.BatchMVMs. The result is nil unless some image failed — the
// layer is not mapped, or its input has the wrong length — in which case
// errs[j] says why and outs[j] is nil; batchmates are unaffected. Engine
// mutators (Remap, Retune, fault injection, scrub) may run concurrently.
func (s *Session) MVMLanes(layer int, idx []int, streams []uint64, xs, outs [][]float64, diffs []Stats, batched bool) []error {
	high := 0
	for _, i := range idx {
		high = max(high, i+1)
	}
	lanes := s.lanesFor(high)
	if streams != nil {
		for j, i := range idx {
			stats.ReseedSub(lanes[i].src, s.engine.cfg.Seed, streams[j])
		}
	}
	ba := &s.ba
	sl := s.engine.slot(layer)
	if sl == nil {
		errs := ba.errsFor(len(idx))
		for j := range errs {
			errs[j] = fmt.Errorf("accel: layer %d is not mapped", layer)
			outs[j] = nil
		}
		return errs
	}
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	var errs []error
	if sl.fallback {
		for j, x := range xs {
			diffs[j] = Stats{SoftMVMs: 1}
			outs[j] = sl.soft.MVM(x)
		}
	} else {
		m := sl.m
		ba.ims = ba.ims[:0]
		for j, x := range xs {
			diffs[j] = Stats{}
			if len(x) != m.inDim {
				if errs == nil {
					errs = ba.errsFor(len(idx))
				}
				errs[j] = fmt.Errorf("accel: input length %d, want %d", len(x), m.inDim)
				outs[j] = nil
				continue
			}
			lane := lanes[idx[j]]
			outs[j] = lane.scr.outFor(m.outDim)
			ba.ims = append(ba.ims, BatchImage{X: x, Out: outs[j], RNG: lane.rng, Scr: lane.scr, St: &diffs[j]})
		}
		if len(ba.ims) > 0 {
			m.MVMBatchInto(ba.ims)
		}
	}
	for j, i := range idx {
		if errs != nil && errs[j] != nil {
			continue
		}
		if batched && !sl.fallback {
			diffs[j].BatchMVMs = 1
		}
		lane := lanes[i]
		lane.layer[layer].Merge(diffs[j])
		lane.stats.Merge(diffs[j])
	}
	return errs
}

// MVMLayer evaluates one mapped layer's matrix-vector product on lane 0,
// returning the output and the ECU stats of this call alone (also merged
// into the session totals, exactly like a Forward-pass MVM). The returned
// slice aliases lane 0's scratch arena and is valid until its next MVM.
// Panics if the layer is not mapped or x has the wrong length, like the
// Forward-pass MVM. This is the unit of spatial retry: sibling replicas map
// the same layer shapes but may choose different per-array codes, so the
// layer MVM is the smallest operation with identical semantics on every
// replica.
func (s *Session) MVMLayer(layer int, x []float64) ([]float64, Stats) {
	one := &s.ba.one
	one.xs[0] = x
	if errs := s.MVMLanes(layer, one.idx[:], nil, one.xs[:], one.outs[:], one.diffs[:], false); errs != nil {
		panic(errs[0])
	}
	return one.outs[0], one.diffs[0]
}

// ForwardBatch runs one noisy inference per input, batched: the images
// advance in lockstep through the network, and at every mapped layer all
// of them are evaluated in a single multi-image pass over the shared
// arrays (one level-list walk per row per batch). streams[i] seeds lane i
// exactly as Reseed(streams[i]) seeds lane 0, so outs[i] is bit-identical
// to Reseed(streams[i]) + Forward(xs[i]) — the batch-size-invariance
// contract. errs[i] is non-nil (and outs[i] nil) when image i alone failed
// (e.g. a shape mismatch); batchmates are unaffected. Outputs and slices
// are valid until the session's next ForwardBatch. The caller owns the
// session; concurrent use is not allowed, but engine mutators (Remap,
// Retune, fault injection, scrub) may run concurrently as with Forward.
func (s *Session) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("accel: %d inputs, %d streams", len(xs), len(streams)))
	}
	if s.fb == nil {
		s.fb = nn.NewForwardBatcher(s.engine.InferenceNet, s.engine.Layers())
	}
	for i, lane := range s.lanesFor(len(xs)) {
		stats.ReseedSub(lane.src, s.engine.cfg.Seed, streams[i])
	}
	return s.fb.Run(xs, s.batchLayer)
}

// batchLayer adapts MVMLanes to the lockstep batcher: all stochastic draws
// happen here, on the caller's goroutine, image-ordered — never on the
// batcher's lane goroutines.
func (s *Session) batchLayer(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	outs, diffs := s.ba.outsFor(len(idx))
	return outs, s.MVMLanes(layer, idx, nil, xs, outs, diffs, true)
}

// DrainBatchStats returns lane i's accumulated stats since the last drain
// and resets them (per-layer tallies included), letting a serving worker
// attribute ECU activity to the individual images of a coalesced batch.
// Lane 0 is the single-image lane, so DrainBatchStats(0) is DrainStats.
func (s *Session) DrainBatchStats(i int) Stats {
	lane := s.lanesFor(i + 1)[i]
	st := *lane.stats
	*lane.stats = Stats{}
	clear(lane.layer)
	return st
}

// DrainBatchLayerStatsInto drains lane i's per-layer stats into a
// caller-owned map (cleared first). Drain it before DrainBatchStats for
// the same lane — DrainBatchStats resets the per-layer tallies too.
func (s *Session) DrainBatchLayerStatsInto(i int, out map[int]Stats) {
	lane := s.lanesFor(i + 1)[i]
	clear(out)
	for l := range lane.layer {
		if lane.layer[l] != (Stats{}) {
			out[l] = lane.layer[l]
			lane.layer[l] = Stats{}
		}
	}
}

// Close releases the session's batch machinery: the lockstep batcher's
// parked lane goroutines and every lane but lane 0. Single-image calls
// stay usable after Close; the batched path re-arms lazily.
func (s *Session) Close() {
	if s.fb != nil {
		s.fb.Close()
		s.fb = nil
	}
	clear(s.ba.lanes[1:])
	s.ba.lanes = s.ba.lanes[:1]
}

// ForwardBatch is the one-shot convenience over a throwaway session: map
// callers that do not hold a session can still run one batched pass.
// outs[i] is bit-identical to a session's Reseed(streams[i]) +
// Forward(xs[i]).
func (e *Engine) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	s := e.NewSession(0)
	defer s.Close()
	return s.ForwardBatch(xs, streams)
}

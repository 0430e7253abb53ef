package shard

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/nn"
	"repro/internal/replica"
)

// Session is one concurrent evaluation stream over the pool: one replica
// session per shard plus a private forward-pass clone of the full network.
// Each layer MVM is delegated to the owning shard's session, so routing,
// failover, and voting happen inside the fault domain that owns the layer.
// Like the sessions underneath it must be driven from a single goroutine.
type Session struct {
	pool *Pool
	// subs[i] is this session's evaluation stream on shard i.
	subs []*replica.Session
	net  *nn.Network
	mvms []nn.MVMFunc
	// fb is the pool-level lockstep batcher, armed by the first
	// ForwardBatch. Each paused layer group belongs to exactly one shard,
	// so batched evaluation delegates whole groups.
	fb  *nn.ForwardBatcher
	tmp map[int]accel.Stats
}

// NewSession creates an evaluation stream across every shard.
func (p *Pool) NewSession(seed uint64) *Session {
	s := &Session{
		pool: p,
		subs: make([]*replica.Session, len(p.shards)),
		net:  p.primary.InferenceNet(),
		tmp:  make(map[int]accel.Stats),
	}
	for i, sh := range p.shards {
		s.subs[i] = sh.set.NewSession(seed)
	}
	s.mvms = make([]nn.MVMFunc, len(s.net.Layers))
	for _, layer := range p.layers {
		layer := layer
		sub := s.subs[p.owner[layer]]
		s.mvms[layer] = func(x []float64) []float64 {
			return sub.MVMLayer(layer, x)
		}
	}
	return s
}

// Reseed repoints the request stream on every shard's session. Each shard
// derives the same per-layer sub-streams the monolithic session would, so
// the evaluation stays a pure function of (engines, stream, input)
// regardless of the shard count.
func (s *Session) Reseed(stream uint64) {
	for _, sub := range s.subs {
		sub.Reseed(stream)
	}
}

// Forward runs one routed inference pass across the shards. The returned
// tensor is owned by the session's network clone and valid until the next
// forward pass.
func (s *Session) Forward(x *nn.Tensor) *nn.Tensor {
	return s.net.ForwardWith(x, s.mvms)
}

// ForwardBatch runs one routed noisy inference per input, batched: images
// advance in lockstep through the full network and each paused layer group
// is delegated to the shard owning that layer, which evaluates it with the
// same per-replica grouping, failover, and voting as the monolithic batch
// path. streams[i] plays the role of Reseed(streams[i]) for image i.
// Outputs are valid until the session's next ForwardBatch.
func (s *Session) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("shard: %d inputs, %d streams", len(xs), len(streams)))
	}
	if s.fb == nil {
		s.fb = nn.NewForwardBatcher(s.pool.primary.InferenceNet, s.pool.layers)
	}
	for _, sub := range s.subs {
		sub.BeginBatch(streams)
	}
	return s.fb.Run(xs, s.batchMVM)
}

// batchMVM routes one paused layer group to the owning shard.
func (s *Session) batchMVM(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	return s.subs[s.pool.owner[layer]].BatchMVM(layer, idx, xs)
}

// DrainStats returns lane 0's ECU statistics accumulated across every
// shard since the last drain and resets them.
func (s *Session) DrainStats() accel.Stats { return s.DrainBatchStats(0) }

// DrainLayerStatsInto drains lane 0's per-layer statistics of every shard,
// merged by layer, into the caller-owned map (cleared first).
func (s *Session) DrainLayerStatsInto(out map[int]accel.Stats) { s.DrainBatchLayerStatsInto(0, out) }

// DrainBatchStats returns lane i's stats summed across every shard since
// the last drain and resets them.
func (s *Session) DrainBatchStats(i int) accel.Stats {
	var st accel.Stats
	for _, sub := range s.subs {
		st.Merge(sub.DrainBatchStats(i))
	}
	return st
}

// DrainBatchLayerStatsInto drains lane i's per-layer stats, merged across
// shards, into the caller-owned map (cleared first). Shards own disjoint
// layers, so the merge is a union. Call it before DrainBatchStats for the
// same lane.
func (s *Session) DrainBatchLayerStatsInto(i int, out map[int]accel.Stats) {
	clear(out)
	for _, sub := range s.subs {
		sub.DrainBatchLayerStatsInto(i, s.tmp)
		for layer, st := range s.tmp {
			agg := out[layer]
			agg.Merge(st)
			out[layer] = agg
		}
	}
}

// Close releases the session's batch machinery across every shard.
// Single-image calls stay usable; the batched path re-arms lazily.
func (s *Session) Close() {
	if s.fb != nil {
		s.fb.Close()
		s.fb = nil
	}
	for _, sub := range s.subs {
		sub.Close()
	}
}

package replica

import (
	"repro/internal/accel"
	"repro/internal/nn"
)

// layerStreamStride separates the per-layer noise streams inside one request
// stream. Reseeding each layer MVM to (stream ^ (layer+1)*stride) makes the
// evaluation a pure function of (replica engine, request stream, layer,
// input): re-executing a layer on a sibling — or re-reading it during a vote
// — always sees the same device noise it would have seen the first time, so
// routing decisions never perturb results and failover is bit-deterministic
// under a fixed seed.
const layerStreamStride = uint64(1) << 40

// Session is one concurrent evaluation stream over a replica set: one
// accel.Session per replica (each with its own evaluation lanes), a
// private forward-pass network clone, and the per-layer MVM closures that
// route, fail over, and vote. A single image is lane 0 of a batch of one,
// so both paths share one routed dispatch (batch.go). Like accel.Session it
// must be driven from a single goroutine.
type Session struct {
	set  *Set
	sub  []*accel.Session
	net  *nn.Network
	mvms []nn.MVMFunc
	// streams[i] is lane i's request stream: Reseed sets lane 0's, and a
	// batch sets one per image.
	streams []uint64
	// flagged counts consecutive detected-uncorrectable evaluations per
	// layer; it resets when the routed read comes back clean and, at the
	// vote threshold, escalates the layer to majority voting.
	flagged []int
	// tmp stages one sub-session's per-layer drain during the merged drain.
	tmp map[int]accel.Stats
	// fb is the lockstep batcher, armed by the first ForwardBatch.
	fb *nn.ForwardBatcher
	// ds is the routed dispatch's gather scratch.
	ds dispatchScratch
}

// NewSession creates an evaluation stream across every replica.
func (s *Set) NewSession(seed uint64) *Session {
	ses := &Session{
		set:     s,
		sub:     make([]*accel.Session, len(s.engines)),
		net:     s.engines[0].InferenceNet(),
		streams: make([]uint64, 1),
		tmp:     make(map[int]accel.Stats),
	}
	for r, eng := range s.engines {
		ses.sub[r] = eng.NewSession(seed)
	}
	ses.mvms = make([]nn.MVMFunc, len(ses.net.Layers))
	ses.flagged = make([]int, len(ses.net.Layers))
	for _, layer := range s.engines[0].Layers() {
		layer := layer
		ses.mvms[layer] = func(x []float64) []float64 {
			return ses.MVMLayer(layer, x)
		}
	}
	return ses
}

// Reseed repoints lane 0's request stream; per-layer sub-streams are
// derived from it at each evaluation.
func (s *Session) Reseed(stream uint64) { s.streams = append(s.streams[:0], stream) }

// MVMLayer is the routed evaluation of one layer for lane 0 under the
// session's current request stream, for callers that compose their own
// forward pass over a partition of the network (the shard pool). The
// returned slice aliases a replica session's lane-0 arena and is valid
// until this session's next single-image MVM. Panics if x has the wrong
// length, like the Forward-pass MVM.
func (s *Session) MVMLayer(layer int, x []float64) []float64 {
	one := &s.ds.one
	one.xs[0] = x
	outs, errs := s.batchMVM(layer, one.idx[:], one.xs[:], false)
	if errs != nil {
		panic(errs[0])
	}
	return outs[0]
}

// Forward runs one routed inference pass. The returned tensor is owned by
// the session's network clone and valid until the next forward pass.
func (s *Session) Forward(x *nn.Tensor) *nn.Tensor {
	return s.net.ForwardWith(x, s.mvms)
}

// DrainStats returns lane 0's ECU statistics accumulated across every
// replica since the last drain and resets them.
func (s *Session) DrainStats() accel.Stats { return s.DrainBatchStats(0) }

// DrainLayerStatsInto drains lane 0's per-layer statistics of every
// replica, merged by layer, into the caller-owned map (cleared first).
func (s *Session) DrainLayerStatsInto(out map[int]accel.Stats) { s.DrainBatchLayerStatsInto(0, out) }

package replica

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/nn"
)

// dispatchScratch is the routed dispatch's reusable gather state
// (grow-never-shrink). It lives on the session (single goroutine); the
// per-replica evaluation state lives in each sub-session's lanes.
type dispatchScratch struct {
	picks []int
	outs  [][]float64
	errs  []error
	diffs []accel.Stats
	gIdx  []int
	gStr  []uint64
	gXs   [][]float64
	gOuts [][]float64
	gDif  []accel.Stats
	gPos  []int

	// one holds MVMLayer's single-image arguments; eval holds evalLane's,
	// which runs inside a dispatch and so needs its own.
	one struct {
		idx [1]int
		xs  [1][]float64
	}
	eval struct {
		idx   [1]int
		str   [1]uint64
		xs    [1][]float64
		outs  [1][]float64
		diffs [1]accel.Stats
	}
}

func (d *dispatchScratch) grow(n int) {
	if cap(d.picks) < n {
		d.picks = make([]int, n)
		d.outs = make([][]float64, n)
		d.errs = make([]error, n)
		d.diffs = make([]accel.Stats, n)
		d.gIdx = make([]int, 0, n)
		d.gStr = make([]uint64, 0, n)
		d.gXs = make([][]float64, 0, n)
		d.gOuts = make([][]float64, 0, n)
		d.gDif = make([]accel.Stats, 0, n)
		d.gPos = make([]int, 0, n)
	}
}

// ForwardBatch runs one routed noisy inference per input, batched: the
// images advance in lockstep and at each mapped layer the paused group is
// routed per image (each image's pick is a pure function of set health,
// layer, and its own stream) and evaluated replica by replica in a single
// multi-image pass over that replica's arrays. streams[i] plays the role of
// Reseed(streams[i]) for image i, so on healthy hardware outs[i] is
// bit-identical to the routed Forward of the same stream. Outputs are valid
// until the session's next ForwardBatch. errs[i] is non-nil (and outs[i]
// nil) when image i alone failed; batchmates are unaffected.
func (s *Session) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("replica: %d inputs, %d streams", len(xs), len(streams)))
	}
	if s.fb == nil {
		s.fb = nn.NewForwardBatcher(s.set.engines[0].InferenceNet, s.set.engines[0].Layers())
	}
	s.BeginBatch(streams)
	return s.fb.Run(xs, s.BatchMVM)
}

// BeginBatch sets the lane streams for an externally coordinated
// multi-image pass: streams[i] is lane i's request stream, playing the
// role of Reseed per image exactly as in ForwardBatch. Call it once per
// batch, before the first BatchMVM of that batch. An empty batch leaves
// lane 0's stream as it was.
func (s *Session) BeginBatch(streams []uint64) {
	if len(streams) > 0 {
		s.streams = append(s.streams[:0], streams...)
	}
}

// BatchMVM is the routed multi-image evaluation of one layer group, for a
// lockstep coordinator (ForwardBatch, or the shard pool's batcher) that
// owns the forward pass and delegates each paused layer to the session
// owning it. idx holds the lane index of each image (indexing the streams
// given to BeginBatch), xs the corresponding MVM inputs. Outputs land in
// per-lane arenas and stay valid until the lane's next evaluation.
func (s *Session) BatchMVM(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	return s.batchMVM(layer, idx, xs, true)
}

// batchMVM is the routed dispatch of one layer for the given lanes — the
// only one: pick a replica per image, evaluate each replica's images in
// one accel.Session.MVMLanes pass, then walk the images in lane order
// applying the flagged/vote/failover escalation — so replica routing and
// voting stay at layer-MVM granularity whether the lanes are one image or
// a batch. batched marks a multi-image pass (Stats.BatchMVMs).
func (s *Session) batchMVM(layer int, idx []int, xs [][]float64, batched bool) ([][]float64, []error) {
	d := &s.ds
	d.grow(len(s.streams))
	picks := d.picks[:len(idx)]
	outs := d.outs[:len(idx)]
	diffs := d.diffs[:len(idx)]
	var errs []error
	for j, lane := range idx {
		picks[j] = s.set.pick(layer, s.streams[lane])
	}
	// Evaluate each replica's group in one pass. Replicas are visited in
	// first-occurrence order; the result is order-independent because every
	// image's draws are a pure function of (replica engine, derived stream).
	for j := range idx {
		r := picks[j]
		if r < 0 {
			continue // already evaluated as part of an earlier group
		}
		d.gIdx, d.gStr, d.gXs = d.gIdx[:0], d.gStr[:0], d.gXs[:0]
		d.gOuts, d.gDif, d.gPos = d.gOuts[:0], d.gDif[:0], d.gPos[:0]
		for k := j; k < len(idx); k++ {
			if picks[k] != r {
				continue
			}
			picks[k] = -1
			lane := idx[k]
			d.gIdx = append(d.gIdx, lane)
			d.gStr = append(d.gStr, s.streams[lane]^uint64(layer+1)*layerStreamStride)
			d.gXs = append(d.gXs, xs[k])
			d.gOuts = append(d.gOuts, nil)
			d.gDif = append(d.gDif, accel.Stats{})
			d.gPos = append(d.gPos, k)
		}
		gErrs := s.sub[r].MVMLanes(layer, d.gIdx, d.gStr, d.gXs, d.gOuts, d.gDif, batched)
		s.set.routed[r].Add(uint64(len(d.gIdx)))
		for g, k := range d.gPos {
			picks[k] = ^r // remember the evaluator for the escalation walk
			if gErrs != nil && gErrs[g] != nil {
				if errs == nil {
					errs = d.errs[:len(idx)]
					clear(errs)
				}
				errs[k] = gErrs[g]
				outs[k] = nil
				continue
			}
			s.set.mons[r].ObserveOne(layer, d.gDif[g])
			outs[k] = d.gOuts[g]
			diffs[k] = d.gDif[g]
		}
	}
	// Escalation walk, image by image in lane order, sharing the session's
	// consecutive-flag counters.
	for j := range idx {
		if errs != nil && errs[j] != nil {
			continue
		}
		r := ^picks[j]
		st := diffs[j]
		if st.Detected == 0 {
			s.flagged[layer] = 0
			continue
		}
		s.flagged[layer]++
		if th := s.set.VoteThreshold(); th > 0 && s.flagged[layer] >= th {
			if v, ok := s.voteLane(layer, idx[j], xs[j], batched); ok {
				outs[j] = v
				continue
			}
		}
		alt, ok := s.set.alternate(layer, s.streams[idx[j]], r)
		if !ok {
			continue
		}
		s.set.failovers[r].Add(1)
		out2, st2 := s.evalLane(alt, layer, idx[j], xs[j], batched)
		if st2.Detected < st.Detected {
			outs[j] = out2
		}
	}
	return outs, errs
}

// evalLane re-evaluates one image on replica r under the same derived
// stream and monitor feed as its routed read, through the image's own lane
// so the output lands in that lane's private arena (batchmates' outputs
// stay live).
func (s *Session) evalLane(r, layer, lane int, x []float64, batched bool) ([]float64, accel.Stats) {
	e := &s.ds.eval
	e.idx[0] = lane
	e.str[0] = s.streams[lane] ^ uint64(layer+1)*layerStreamStride
	e.xs[0] = x
	s.sub[r].MVMLanes(layer, e.idx[:], e.str[:], e.xs[:], e.outs[:], e.diffs[:], batched)
	s.set.routed[r].Add(1)
	s.set.mons[r].ObserveOne(layer, e.diffs[0])
	return e.outs[0], e.diffs[0]
}

// voteLane evaluates the layer for one image on a 3-replica panel and
// returns the element-wise median, tallying elements where a voter
// deviates past the tolerance — the signature of a damaged copy whose
// errors alias into plausible magnitudes. ok is false when fewer than 3
// replicas are attached. The three outputs live in three distinct engines'
// lane arenas, so they are simultaneously valid; the median is written
// into the first in place.
func (s *Session) voteLane(layer, lane int, x []float64, batched bool) ([]float64, bool) {
	vs := s.set.voters(layer, 3)
	if len(vs) < 3 {
		return nil, false
	}
	a, _ := s.evalLane(vs[0], layer, lane, x, batched)
	b, _ := s.evalLane(vs[1], layer, lane, x, batched)
	c, _ := s.evalLane(vs[2], layer, lane, x, batched)
	s.set.votes.Add(1)
	tol := s.set.cfg.VoteTolerance
	var dis uint64
	for i := range a {
		av, bv, cv := a[i], b[i], c[i]
		m := av + bv + cv - math.Min(av, math.Min(bv, cv)) - math.Max(av, math.Max(bv, cv))
		lim := tol * math.Max(math.Abs(m), 1)
		if math.Abs(av-m) > lim {
			dis++
		}
		if math.Abs(bv-m) > lim {
			dis++
		}
		if math.Abs(cv-m) > lim {
			dis++
		}
		a[i] = m
	}
	if dis > 0 {
		s.set.disagreements.Add(dis)
	}
	return a, true
}

// DrainBatchStats returns lane i's stats summed across every replica since
// the last drain and resets them — the per-image drain of a batch; lane 0
// is also the single-image lane.
func (s *Session) DrainBatchStats(i int) accel.Stats {
	var st accel.Stats
	for _, sub := range s.sub {
		st.Merge(sub.DrainBatchStats(i))
	}
	return st
}

// DrainBatchLayerStatsInto drains lane i's per-layer stats, merged across
// replicas, into the caller-owned map (cleared first). Call it before
// DrainBatchStats for the same lane.
func (s *Session) DrainBatchLayerStatsInto(i int, out map[int]accel.Stats) {
	clear(out)
	for _, sub := range s.sub {
		sub.DrainBatchLayerStatsInto(i, s.tmp)
		for layer, st := range s.tmp {
			agg := out[layer]
			agg.Merge(st)
			out[layer] = agg
		}
	}
}

// Close releases the session's batch machinery across every replica.
// Single-image calls stay usable; the batched path re-arms lazily.
func (s *Session) Close() {
	if s.fb != nil {
		s.fb.Close()
		s.fb = nil
	}
	for _, sub := range s.sub {
		sub.Close()
	}
}

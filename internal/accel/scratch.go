package accel

import "repro/internal/noise"

// Scratch is the per-session arena of the noisy-MVM hot path: every buffer
// MappedMatrix.MVM and group.read used to allocate per call lives here and
// is reused across calls, so a warm Forward performs zero heap allocations.
//
// Ownership rules:
//   - One Scratch belongs to exactly one evaluation goroutine (each lane of
//     a Session owns one; so does each serving worker through its Session).
//     It must never be shared across concurrent MVMs.
//   - Slices returned by MVM-internal paths (group lane reads, mask planes)
//     alias the arena and are only valid until the next MVM touches it.
//     The public MVM copies its result into a caller-owned slice; MVMInto
//     and MVMBatchInto write into the destinations the caller provides.
//   - Buffers grow on demand and never shrink, so steady-state traffic over
//     a fixed topology reaches a fixed point with no allocation at all.
type Scratch struct {
	// qvals backs the quantized input vector.
	qvals []uint64
	// masks are the input bit-plane masks (InputMasksInto reuse).
	masks [][]uint64
	// aggs and ts hold the current group's precomputed per-(plane, row)
	// noise aggregates and ideal outputs, indexed plane*rows+row.
	aggs []noise.RowAgg
	ts   []int
	// acc is the internal-output accumulator of the shift-and-add
	// reduction across chunks and input bits.
	acc []int64
	// lanes receives each group read's unpacked lane values.
	lanes []uint64
	// plaus is the lane buffer of the miscorrection plausibility check,
	// separate from lanes so the check cannot clobber a live read result.
	plaus []uint64
	// out is the dequantized output buffer the Session MVM path hands to
	// the network layers (which copy it immediately).
	out []float64
	// kn is the batch-kernel scratch MVMBatchInto uses when this arena is
	// the first image's.
	kn batchKernel
	// one is MVMInto's argument slot for a batch of one.
	one [1]BatchImage
}

// batchKernel is the scratch shared across the images of one MVMBatchInto
// call: the flat level-major count buffer and accumulators of the fused
// multi-image bit-plane kernel, plus small per-image gather slices.
type batchKernel struct {
	counts []int
	accs   []noise.AggAccum
	sets   [][][]uint64
	scales []float64
	vsums  []int64
}

func (k *batchKernel) countsFor(n int) []int {
	if cap(k.counts) < n {
		k.counts = make([]int, n)
	}
	return k.counts[:n]
}

func (k *batchKernel) accsFor(n int) []noise.AggAccum {
	if cap(k.accs) < n {
		k.accs = make([]noise.AggAccum, n)
	}
	return k.accs[:n]
}

func (k *batchKernel) setsFor(n int) [][][]uint64 {
	if cap(k.sets) < n {
		k.sets = make([][][]uint64, n)
	}
	return k.sets[:n]
}

func (k *batchKernel) scalesFor(n int) []float64 {
	if cap(k.scales) < n {
		k.scales = make([]float64, n)
	}
	return k.scales[:n]
}

func (k *batchKernel) vsumsFor(n int) []int64 {
	if cap(k.vsums) < n {
		k.vsums = make([]int64, n)
	}
	return k.vsums[:n]
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// accFor returns the zeroed internal accumulator sized for n outputs.
func (s *Scratch) accFor(n int) []int64 {
	if cap(s.acc) < n {
		s.acc = make([]int64, n)
	}
	s.acc = s.acc[:n]
	for i := range s.acc {
		s.acc[i] = 0
	}
	return s.acc
}

// aggTsFor returns the per-(plane, row) aggregate and ideal-output buffers
// for one group (contents stale; precomputeBatch overwrites every entry).
func (s *Scratch) aggTsFor(n int) ([]noise.RowAgg, []int) {
	if cap(s.aggs) < n {
		s.aggs = make([]noise.RowAgg, n)
	}
	if cap(s.ts) < n {
		s.ts = make([]int, n)
	}
	s.aggs, s.ts = s.aggs[:n], s.ts[:n]
	return s.aggs, s.ts
}

// lanesFor returns the lane buffer for n operands (contents stale).
func (s *Scratch) lanesFor(n int) []uint64 {
	if cap(s.lanes) < n {
		s.lanes = make([]uint64, n)
	}
	return s.lanes[:n]
}

// plausFor returns the plausibility-check lane buffer (contents stale).
func (s *Scratch) plausFor(n int) []uint64 {
	if cap(s.plaus) < n {
		s.plaus = make([]uint64, n)
	}
	return s.plaus[:n]
}

// outFor returns the MVM output buffer for n outputs (contents stale;
// MVMBatchInto overwrites every entry).
func (s *Scratch) outFor(n int) []float64 {
	if cap(s.out) < n {
		s.out = make([]float64, n)
	}
	return s.out[:n]
}

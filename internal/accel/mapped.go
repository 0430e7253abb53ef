package accel

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/fixed"
	"repro/internal/noise"
	"repro/internal/stats"
)

// activeProb is the assumed probability that a column is driven in a given
// input-bit cycle, used when ranking characterized faults for syndrome
// allocation (input bits of quantized activations are roughly balanced).
const activeProb = 0.5

// verifySeedSalt separates the program-verify RNG stream from the layer's
// fault-injection stream: both derive from (cfg.Seed, layer seed), but the
// verify loop must not consume draws the stuck/giant injection depends on.
const verifySeedSalt = uint64(1) << 62

// stuckInfo is one stuck cell's precomputed read-time effect.
type stuckInfo struct {
	word  int
	bit   uint
	delta int // output deviation in steps while the column is active
}

// giantInfo is one giant-RTN-prone cell's precomputed read-time effect:
// when its column is active and the cell flickers into the error state, the
// row current shifts by mag steps.
type giantInfo struct {
	word int
	bit  uint
	mag  float64
}

// group is one coded operand group mapped onto a (logical) array: GroupOps
// output rows sharing a column chunk, bit sliced with check bits attached.
type group struct {
	arr    *crossbar.Array
	code   *core.Code // nil for the NoECC baseline
	layout core.GroupLayout
	// outRows are the output indices served by each lane.
	outRows []int
	// maxLane is the largest partial sum a lane can legitimately hold
	// (columns * max operand); the ECU uses it as a plausibility bound to
	// reject miscorrections that a blind table lookup would let through.
	maxLane uint64
	// stuckRows[r] lists the stuck cells of physical row r (usually nil).
	stuckRows [][]stuckInfo
	// giantRows[r] lists the giant-RTN-prone cells of physical row r.
	giantRows [][]giantInfo
	// stuckPresent and giantPresent are per-row presence bitsets (bit r set
	// iff the row hosts any such cell), so the overwhelmingly clean rows
	// skip the fault scans with one word test.
	stuckPresent []uint64
	giantPresent []uint64
}

// chunk is a column range of the weight matrix mapped onto one array
// column block.
type chunk struct {
	colLo, colHi int
	groups       []*group
}

// MappedMatrix is one weight matrix (dense layer, or convolution kernel
// viewed as OutC x PatchLen) quantized, encoded, and programmed onto
// crossbar arrays.
type MappedMatrix struct {
	cfg     Config
	sampler *noise.RowSampler
	outDim  int
	inDim   int
	scale   float64
	chunks  []*chunk
	// pulseFail is the per-level single-pulse verify-miss probability the
	// closed-loop write path draws against.
	pulseFail []float64
	// verify accumulates the program-verify accounting of the mapping pass.
	verify crossbar.VerifyTally
	// PhysicalRows is the total word-line count across all groups, the
	// quantity the hardware model charges for ADC/driver overhead.
	PhysicalRows int
}

// MapMatrix quantizes and programs a weight matrix. weightAt(r, c) returns
// the float weight of output r, input c. seed drives fault injection and
// must differ across layers for independent fault populations.
// retuneDevice swaps the device model under an environment change without
// re-programming the arrays: digital cell state, codes, and the static
// allocation tables are untouched; only the noise sampler and the verify
// pulse-miss probabilities derive from the new device. The caller must hold
// the owning slot's write lock. Structural parameters (BitsPerCell — the
// array level count) cannot change without a remap.
func (m *MappedMatrix) retuneDevice(dev noise.DeviceParams) error {
	if dev.BitsPerCell != m.cfg.Device.BitsPerCell {
		return fmt.Errorf("accel: retune cannot change bits/cell %d -> %d without a remap",
			m.cfg.Device.BitsPerCell, dev.BitsPerCell)
	}
	sampler, err := noise.NewRowSampler(dev)
	if err != nil {
		return err
	}
	m.cfg.Device = dev
	m.sampler = sampler
	m.pulseFail = sampler.PulseFailProbs()
	return nil
}

// Device returns the device model currently driving this matrix's noise
// sampler.
func (m *MappedMatrix) Device() noise.DeviceParams { return m.cfg.Device }

func MapMatrix(cfg Config, outDim, inDim int, weightAt func(r, c int) float64, seed uint64) (*MappedMatrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if outDim < 1 || inDim < 1 {
		return nil, fmt.Errorf("accel: empty matrix %dx%d", outDim, inDim)
	}
	sampler, err := noise.NewRowSampler(cfg.Device)
	if err != nil {
		return nil, err
	}

	// Quantize the whole layer with one scale, then encode negatives per
	// the configured scheme: offset binary (one row set plus a digital
	// bias) or differential (separate positive/negative row sets).
	flat := make([]float64, outDim*inDim)
	for r := 0; r < outDim; r++ {
		for c := 0; c < inDim; c++ {
			flat[r*inDim+c] = weightAt(r, c)
		}
	}
	q := fixed.Quantize(flat, cfg.WeightBits)
	internalOut := outDim
	if cfg.Encoding == EncodingDifferential {
		internalOut = 2 * outDim
	}
	biased := make([]uint64, internalOut*inDim)
	for r := 0; r < outDim; r++ {
		for c := 0; c < inDim; c++ {
			v := q.Values[r*inDim+c]
			if cfg.Encoding == EncodingDifferential {
				if v >= 0 {
					biased[(2*r)*inDim+c] = uint64(v)
				} else {
					biased[(2*r+1)*inDim+c] = uint64(-v)
				}
			} else {
				biased[r*inDim+c] = fixed.Bias(v, cfg.WeightBits)
			}
		}
	}

	m := &MappedMatrix{cfg: cfg, sampler: sampler, outDim: outDim, inDim: inDim, scale: q.Scale,
		pulseFail: sampler.PulseFailProbs()}
	rng := stats.SubRNG(cfg.Seed, seed)
	// The verify loop draws pulse misses from its own stream so enabling
	// closed-loop programming does not perturb the fault-injection draws —
	// recorded experiment seeds keep reproducing.
	vrng := stats.SubRNG(cfg.Seed, seed^verifySeedSalt)
	staticCache := map[int]*core.Code{}

	for lo := 0; lo < inDim; lo += cfg.ArraySize {
		hi := min(lo+cfg.ArraySize, inDim)
		ch := &chunk{colLo: lo, colHi: hi}
		for gLo := 0; gLo < internalOut; gLo += cfg.Scheme.GroupOps {
			gHi := min(gLo+cfg.Scheme.GroupOps, internalOut)
			outRows := make([]int, 0, gHi-gLo)
			for r := gLo; r < gHi; r++ {
				outRows = append(outRows, r)
			}
			g, err := m.buildGroup(biased, outRows, lo, hi, rng, vrng, staticCache)
			if err != nil {
				return nil, err
			}
			ch.groups = append(ch.groups, g)
			m.PhysicalRows += g.arr.Rows
		}
		m.chunks = append(m.chunks, ch)
	}
	return m, nil
}

// layoutFor builds the group layout for a lane count under the scheme's
// guard policy.
func (m *MappedMatrix) layoutFor(ops, cols int) core.GroupLayout {
	// Guard bits absorb per-input-bit accumulation over the chunk columns;
	// the input-bit reduction happens digitally after decode, so the
	// column count is the only growth the lanes must absorb.
	guard := core.GuardBitsFor(cols)
	if m.cfg.Scheme.ZeroGuard {
		guard = 0
	}
	return core.GroupLayout{Operands: ops, OperandBits: m.cfg.WeightBits, GuardBits: guard}
}

// groupDataBits is the bit length of the widest packed group value.
func groupDataBits(layout core.GroupLayout) int {
	return (layout.Operands-1)*layout.LaneBits() + layout.OperandBits
}

func (m *MappedMatrix) buildGroup(biased []uint64, outRows []int, colLo, colHi int,
	rng, vrng *rand.Rand, staticCache map[int]*core.Code) (*group, error) {

	cols := colHi - colLo
	layout := m.layoutFor(len(outRows), cols)
	cell := m.cfg.Device.BitsPerCell

	// Pack the lane operands per column.
	packed := make([]core.Word, cols)
	ops := make([]uint64, len(outRows))
	for j := 0; j < cols; j++ {
		for i, r := range outRows {
			ops[i] = biased[r*m.inDim+colLo+j]
		}
		w, err := layout.Pack(ops)
		if err != nil {
			return nil, err
		}
		packed[j] = w
	}

	// Determine the check budget and row count.
	var checkBits int
	var code *core.Code
	switch m.cfg.Scheme.Kind {
	case KindNone:
		checkBits = 0
	case KindStatic:
		c, err := staticCodeFor(staticCache, layout, cell, m.cfg.Scheme.B)
		if err != nil {
			return nil, err
		}
		code = c
		checkBits = c.CheckBits()
	case KindABN:
		checkBits = m.cfg.Scheme.CheckBits
	}
	nRows := (groupDataBits(layout) + checkBits + cell - 1) / cell

	// Hard faults and the giant-RTN-prone population are properties of the
	// physical cells, independent of the code eventually chosen; the
	// characterization pass (Section V-B5) identifies both.
	stuckCells := noise.InjectStuck(rng, nRows, cols, m.cfg.Device)
	giantCells := noise.InjectGiantProne(rng, nRows, cols, m.cfg.Device)

	// Program-verify characterization: stuck cells discovered while
	// writing the weights are compensated digitally by the ECU periphery
	// (their analog deviation is known exactly and subtracted), so they
	// vanish from the error model; only post-deployment endurance
	// failures remain for the split correction tables. The NoECC baseline
	// has no error-handling periphery at all (the paper's premise), so it
	// takes every fault raw.
	if m.cfg.Scheme.Kind != KindNone {
		unknown := stuckCells[:0:0]
		for _, sc := range stuckCells {
			if rng.Float64() >= m.cfg.Device.StuckCharacterizedFrac {
				unknown = append(unknown, sc)
			}
		}
		stuckCells = unknown
	}

	if m.cfg.Scheme.Kind == KindABN {
		code = m.searchABN(packed, stuckCells, giantCells, layout, nRows)
	}

	// Program the array with the final encoding.
	mult := uint64(1)
	if code != nil {
		mult = code.M()
	}
	arr := crossbar.NewArrayWithSpares(nRows, cols, cell, m.cfg.SpareRows)
	for j, w := range packed {
		enc, ok := w.MulU64(mult)
		if !ok {
			return nil, fmt.Errorf("accel: encoding overflow in group")
		}
		if m.cfg.VerifyIters > 0 {
			tally, err := arr.ProgramColumnVerify(j, enc, m.cfg.VerifyIters, m.pulseFail, vrng)
			if err != nil {
				return nil, err
			}
			m.verify.Merge(tally)
		} else if err := arr.ProgramColumn(j, enc); err != nil {
			return nil, err
		}
	}

	rowWords := (nRows + 63) / 64
	g := &group{arr: arr, code: code, layout: layout, outRows: outRows,
		maxLane:      uint64(cols) * (uint64(1)<<layout.OperandBits - 1),
		stuckRows:    make([][]stuckInfo, nRows),
		giantRows:    make([][]giantInfo, nRows),
		stuckPresent: make([]uint64, rowWords),
		giantPresent: make([]uint64, rowWords)}
	for _, sc := range stuckCells {
		delta := int(sc.Level) - int(arr.Level(sc.Row, sc.Col))
		if delta == 0 {
			continue
		}
		g.stuckRows[sc.Row] = append(g.stuckRows[sc.Row], stuckInfo{
			word: sc.Col / 64, bit: uint(sc.Col % 64), delta: delta,
		})
		g.stuckPresent[sc.Row>>6] |= 1 << (uint(sc.Row) & 63)
	}
	for _, gc := range giantCells {
		mag := m.sampler.GiantMagnitude(int(arr.Level(gc.Row, gc.Col)))
		if mag == 0 {
			continue
		}
		if gc.Neg {
			mag = -mag
		}
		g.giantRows[gc.Row] = append(g.giantRows[gc.Row], giantInfo{
			word: gc.Col / 64, bit: uint(gc.Col % 64), mag: mag,
		})
		g.giantPresent[gc.Row>>6] |= 1 << (uint(gc.Row) & 63)
	}
	return g, nil
}

// searchABN runs the per-array A search of Section V-B4: for each candidate
// A the group is (virtually) encoded, the per-row worst-case error
// probabilities derived from the resulting cell states, and the data-aware
// table built; the A covering the most error probability wins.
func (m *MappedMatrix) searchABN(packed []core.Word, stuckCells []noise.StuckCell,
	giantCells []noise.GiantCell, layout core.GroupLayout, nRows int) *core.Code {

	b := m.cfg.Scheme.B
	if b == 0 {
		b = 1
	}
	var candidates []uint64
	if m.cfg.Scheme.FullSearch {
		candidates = core.CandidateAs(m.cfg.Scheme.CheckBits, b)
	} else {
		candidates = core.HardwareCandidateAs(m.cfg.Scheme.CheckBits, b)
	}
	cell := m.cfg.Device.BitsPerCell
	numLevels := 1 << cell

	var best *core.Code
	bestCovered := -1.0
	for _, a := range candidates {
		spec := core.DataAwareSpec{}
		// Virtual encode: per-row level histograms under this A.
		hist := make([][]int, nRows)
		levels := make([][]uint8, len(packed))
		for r := range hist {
			hist[r] = make([]int, numLevels)
		}
		ok := true
		for j, w := range packed {
			enc, fits := w.MulU64(a * b)
			if !fits {
				ok = false
				break
			}
			lv, err := crossbar.SliceLevels(enc, cell, nRows)
			if err != nil {
				ok = false
				break
			}
			levels[j] = lv
			for r, l := range lv {
				hist[r][l]++
			}
		}
		if !ok {
			continue
		}
		rowProbs := make([]noise.StepProbs, nRows)
		for r := 0; r < nRows; r++ {
			rowProbs[r] = m.sampler.PredictStepProbs(noise.WorstCaseRowCounts(hist[r]))
		}
		// Characterized giant-prone cells dominate the row susceptibility;
		// their magnitudes depend on the levels this candidate A encodes.
		// Small events blur across the +/-1 and +/-2 buckets; larger ones
		// register their true rounded step so the table allocates the
		// syndrome that actually occurs.
		flicker := m.cfg.Device.GiantFlickerProb
		magsByRow := make(map[int][]float64)
		extraByRow := make(map[int][]core.ExtraStep)
		for _, gc := range giantCells {
			mag := m.sampler.GiantMagnitude(int(levels[gc.Col][gc.Row]))
			if gc.Neg {
				mag = -mag
			}
			if math.Abs(mag) < 2.5 {
				rowProbs[gc.Row].AddDiscrete(mag, flicker*activeProb)
			} else {
				// Large events quantize to their rounded step, but the
				// residual read jitter occasionally lands one step away;
				// register the neighbours so those reads stay correctable.
				for d := -1; d <= 1; d++ {
					steps := int(math.Round(mag)) + d
					w := stepBlurWeight(mag, steps)
					if steps != 0 && w > 1e-4 {
						extraByRow[gc.Row] = append(extraByRow[gc.Row],
							core.ExtraStep{Steps: steps, P: flicker * activeProb * w})
					}
				}
			}
			magsByRow[gc.Row] = append(magsByRow[gc.Row], mag)
		}
		for r, mags := range magsByRow {
			// Rows hosting several prone cells can produce combined-step
			// errors beyond the +/-2 buckets; register the pairwise sums.
			p2 := flicker * activeProb * flicker * activeProb
			for i := 0; i < len(mags); i++ {
				for j := i + 1; j < len(mags); j++ {
					steps := int(math.Round(mags[i] + mags[j]))
					if steps != 0 && steps != 1 && steps != -1 && steps != 2 && steps != -2 {
						extraByRow[r] = append(extraByRow[r], core.ExtraStep{Steps: steps, P: p2})
					}
				}
			}
		}
		for r := 0; r < nRows; r++ {
			spec.Rows = append(spec.Rows, core.RowErr{
				BitOffset: r * cell,
				StepProb:  rowProbs[r],
				Extra:     extraByRow[r],
			})
		}
		for _, sc := range stuckCells {
			delta := int(sc.Level) - int(levels[sc.Col][sc.Row])
			if delta == 0 {
				continue
			}
			spec.Stuck = append(spec.Stuck, core.StuckErr{
				BitOffset: sc.Row * cell, Steps: delta, PActive: activeProb,
			})
		}
		table := core.BuildDataAwareTable(a, b, spec)
		if table.CoveredProb() > bestCovered {
			best = &core.Code{A: a, B: b, Table: table}
			bestCovered = table.CoveredProb()
		}
	}
	return best
}

// stepBlurWeight is the probability that a discrete error of continuous
// magnitude mag quantizes to the given step under the residual read jitter.
func stepBlurWeight(mag float64, steps int) float64 {
	const sigma = 0.15
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/(sigma*math.Sqrt2))) }
	s := float64(steps)
	return phi(s+0.5-mag) - phi(s-0.5-mag)
}

// staticCodeFor builds (and caches per lane count) the naive
// single-error-correcting code of Section V-A sized so its static table
// covers every physical row of the encoded group.
func staticCodeFor(cache map[int]*core.Code, layout core.GroupLayout, cell int, b uint64) (*core.Code, error) {
	if c, ok := cache[layout.Operands]; ok {
		return c, nil
	}
	dataBits := groupDataBits(layout)
	check := 1
	for iter := 0; iter < 64; iter++ {
		nRows := (dataBits + check + cell - 1) / cell
		wordBits := nRows*cell + 1 // +/-2 errors on the top row included
		a := core.MinimalSingleErrorA(wordBits, b)
		newCheck := bits.Len64(a*b - 1)
		if newCheck == check {
			table, err := core.NewStaticTable(a, wordBits)
			if err != nil {
				return nil, err
			}
			c := &core.Code{A: a, B: b, Table: table}
			cache[layout.Operands] = c
			return c, nil
		}
		check = newCheck
	}
	return nil, fmt.Errorf("accel: static code sizing did not converge for %d data bits", dataBits)
}

// debugReadHook, when non-nil, receives the pre-correction accumulator and
// post-correction value of every group read (white-box test instrumentation
// only; nil in production).
var debugReadHook func(g *group, raw, corrected core.Word, status core.Status)

// precomputeBatch runs the deterministic half of every row read of this
// group for B images at once: one walk of each row's level list and
// fault-shaped masks feeds every image's per-plane active counts, their
// noise aggregates, and the ideal ADC outputs (the masks differ per image;
// the level lists, per-level noise terms, and CDF tables are shared). Each
// image's results land in its own Scratch arena, indexed plane*rows+row. It
// touches no RNG, so hoisting it out of the per-bit read loop (and reusing
// it across ECU retry re-reads) cannot move a draw.
func (g *group) precomputeBatch(m *MappedMatrix, ims []BatchImage) {
	kn := &ims[0].Scr.kn
	rows := g.arr.Rows
	planes := len(ims[0].Scr.masks)
	stride := len(ims) * planes
	counts := kn.countsFor(g.arr.NumLevels() * stride)
	accs := kn.accsFor(stride)
	sets := kn.setsFor(len(ims))
	for i, im := range ims {
		sets[i] = im.Scr.masks
		im.Scr.aggTsFor(planes * rows)
	}
	for r := 0; r < rows; r++ {
		g.arr.ActiveCountsBatch(r, sets, counts)
		lv := g.arr.LevelList(r)
		m.sampler.AccumulateRowLevelsBatch(lv, counts, accs)
		j := 0
		for _, im := range ims {
			for b := 0; b < planes; b++ {
				agg, t := m.sampler.FinishAccum(&accs[j])
				im.Scr.aggs[b*rows+r] = agg
				im.Scr.ts[b*rows+r] = t
				j++
			}
		}
	}
}

// read performs one group read under input bit plane `bit` of the masks in
// the scratch arena: per-row noisy ADC sampling, shift-and-add reduction,
// ECU correction (with re-reads on detected-uncorrectable errors if
// configured), decode, and lane split. precomputeBatch must have run for
// the current masks. The returned lanes alias the arena and are valid
// until the next read.
func (g *group) read(m *MappedMatrix, scr *Scratch, bit int, rng *stats.FastRand, sn *stats.BinomSnapshot, st *Stats) []uint64 {
	var acc core.Word
	var status core.Status
	for attempt := 0; ; attempt++ {
		acc = g.sampleRows(m, scr, bit, rng, sn, st)
		if g.code == nil {
			return g.layout.UnpackInto(scr.lanesFor(g.layout.Operands), acc)
		}
		var fixedW core.Word
		fixedW, status = g.code.Correct(acc)
		if status == core.StatusCorrected && !g.plausible(fixedW, scr) {
			// The corrected quotient violates the lane bound, so the
			// table hit was an aliased miscorrection (Section V-A's
			// "may make the error even worse"); the ECU treats it like
			// any other detected-uncorrectable error.
			fixedW, status = acc, core.StatusDetected
		}
		if status == core.StatusDetected && attempt < m.cfg.Retries {
			st.Retries++
			continue
		}
		if debugReadHook != nil {
			debugReadHook(g, acc, fixedW, status)
		}
		acc = fixedW
		break
	}
	switch status {
	case core.StatusClean:
		st.Clean++
	case core.StatusCorrected:
		st.Corrected++
	case core.StatusDetected:
		st.Detected++
	}
	q, rem := g.code.Decode(acc)
	if rem != 0 {
		st.Residual++
	}
	lanes := g.layout.UnpackInto(scr.lanesFor(g.layout.Operands), q)
	// Digital saturation: a lane can never legitimately exceed the maximum
	// partial sum, so the periphery clamps whatever residual-error garbage
	// a reverted read leaves behind.
	for i, lane := range lanes {
		if lane > g.maxLane {
			lanes[i] = g.maxLane
		}
	}
	return lanes
}

// sampleRows performs the per-row noisy ADC conversions of one group read
// and reduces them with the shift-and-add tree. The deterministic
// quantities come from precomputeBatch; only the noise draws happen here,
// in exactly the historical order (binomial+Gaussian core, then giant
// flickers, row-major).
func (g *group) sampleRows(m *MappedMatrix, scr *Scratch, bit int, rng *stats.FastRand, sn *stats.BinomSnapshot, st *Stats) core.Word {
	var acc core.Word
	cell := g.arr.BitsPerCell
	maxOut := g.arr.MaxOutput()
	flicker := m.cfg.Device.GiantFlickerProb
	mask := scr.masks[bit]
	rows := g.arr.Rows
	base := bit * rows
	for r := 0; r < rows; r++ {
		t := scr.ts[base+r]
		dev := m.sampler.SampleAggFast(rng, sn, &scr.aggs[base+r])
		if g.giantPresent[r>>6]>>(uint(r)&63)&1 != 0 {
			for _, gi := range g.giantRows[r] {
				if mask[gi.word]>>gi.bit&1 == 1 && rng.Float64() < flicker {
					dev += gi.mag
				}
			}
		}
		s := t + int(math.Round(dev))
		if g.stuckPresent[r>>6]>>(uint(r)&63)&1 != 0 {
			for _, si := range g.stuckRows[r] {
				if mask[si.word]>>si.bit&1 == 1 {
					s += si.delta
				}
			}
		}
		if s < 0 {
			s = 0
		}
		if s > maxOut {
			s = maxOut
		}
		st.RowReads++
		if s != t {
			st.RowErrors++
		}
		acc.AddShifted(uint64(s), uint(r*cell))
	}
	return acc
}

// plausible reports whether every lane of the decoded correction result
// lies within the physically reachable partial-sum range.
func (g *group) plausible(fixed core.Word, scr *Scratch) bool {
	q, _ := g.code.Decode(fixed)
	if q.BitLen() > g.layout.DataBits() {
		return false
	}
	for _, lane := range g.layout.UnpackInto(scr.plausFor(g.layout.Operands), q) {
		if lane > g.maxLane {
			return false
		}
	}
	return true
}

// MVM computes the noisy in-situ product W*x for a quantized input vector,
// returning dequantized float outputs in a fresh slice. scr is the
// caller-owned scratch arena.
func (m *MappedMatrix) MVM(x []float64, rng *stats.FastRand, scr *Scratch, st *Stats) []float64 {
	out := make([]float64, m.outDim)
	m.MVMInto(out, x, rng, scr, st)
	return out
}

// MVMInto is MVM writing into out (len must be the output dimension): a
// batch of one through MVMBatchInto, over an argument slot held in the
// scratch arena, so a warm arena makes the whole call allocation-free.
func (m *MappedMatrix) MVMInto(out, x []float64, rng *stats.FastRand, scr *Scratch, st *Stats) {
	scr.one[0] = BatchImage{X: x, Out: out, RNG: rng, Scr: scr, St: st}
	m.MVMBatchInto(scr.one[:])
}

// BatchImage is one image's arguments to MVMBatchInto.
type BatchImage struct {
	// X is the input vector; Out receives the output and must have the
	// output dimension.
	X, Out []float64
	// RNG draws this image's noise.
	RNG *stats.FastRand
	// Scr is this image's private arena; the first image's also hosts the
	// batch-kernel scratch shared by the call.
	Scr *Scratch
	// St receives this image's ECU and row-error tallies.
	St *Stats
}

// MVMBatchInto evaluates W*x for B images in one pass over the mapped
// arrays — the only MVM kernel. Per image the result is a pure function of
// (matrix, input, that image's RNG state): the deterministic precompute is
// fused across the batch (touching no RNG), while the stochastic row reads
// run per image, in batch order within each (chunk, group), each on its
// own RNG — so every image's draw sequence is exactly what it would be in
// a batch of one. Warm arenas make the whole call allocation-free.
func (m *MappedMatrix) MVMBatchInto(ims []BatchImage) {
	for i, im := range ims {
		if len(im.X) != m.inDim {
			panic(fmt.Sprintf("accel: input %d length %d, want %d", i, len(im.X), m.inDim))
		}
		if len(im.Out) != m.outDim {
			panic(fmt.Sprintf("accel: output %d length %d, want %d", i, len(im.Out), m.outDim))
		}
	}
	kn := &ims[0].Scr.kn
	scales := kn.scalesFor(len(ims))
	vsums := kn.vsumsFor(len(ims))
	for i, im := range ims {
		qx := fixed.QuantizeUnsignedInto(im.Scr.qvals, im.X, m.cfg.InputBits)
		im.Scr.qvals = qx.Values
		scales[i] = qx.Scale
	}
	internalOut := m.outDim
	if m.cfg.Encoding == EncodingDifferential {
		internalOut = 2 * m.outDim
	}
	for _, im := range ims {
		im.Scr.accFor(internalOut)
	}
	sn := m.sampler.BinomSnapshot()
	for _, ch := range m.chunks {
		for i, im := range ims {
			sub := im.Scr
			vals := sub.qvals[ch.colLo:ch.colHi]
			sub.masks = crossbar.InputMasksInto(sub.masks, vals, m.cfg.InputBits)
			var vsum int64
			for _, v := range vals {
				vsum += int64(v)
			}
			vsums[i] = vsum
		}
		for _, g := range ch.groups {
			g.precomputeBatch(m, ims)
			for _, im := range ims {
				sub := im.Scr
				for b := range sub.masks {
					lanes := g.read(m, sub, b, im.RNG, &sn, im.St)
					for li, outRow := range g.outRows {
						sub.acc[outRow] += int64(lanes[li]) << uint(b)
					}
				}
			}
		}
		if m.cfg.Encoding == EncodingOffsetBinary {
			// Offset-binary correction: subtract half * sum(inputs) from
			// every internal row served by this chunk (Section VII-D
			// negative-weight handling).
			for i, im := range ims {
				bias := fixed.BiasCorrection(m.cfg.WeightBits, vsums[i])
				for r := range im.Scr.acc {
					im.Scr.acc[r] -= bias
				}
			}
		}
	}
	for i, im := range ims {
		f := m.scale * scales[i]
		acc := im.Scr.acc
		for r := range im.Out {
			if m.cfg.Encoding == EncodingDifferential {
				im.Out[r] = float64(acc[2*r]-acc[2*r+1]) * f
			} else {
				im.Out[r] = float64(acc[r]) * f
			}
		}
	}
}

// StorageOverhead returns the fraction of programmed cell bits that are
// not raw weight data — check bits, lane guard bits, and slice padding.
// The paper's Section V-A/VIII-A comparisons are in these terms: Static16
// spends ~6 check bits per 16-bit operand (~38%), the grouped ABN codes
// 7-10 bits per 128 (~7%).
func (m *MappedMatrix) StorageOverhead() float64 {
	dataBits := m.outDim * m.inDim * m.cfg.WeightBits
	if m.cfg.Encoding == EncodingDifferential {
		dataBits *= 2
	}
	stored := 0
	for _, ch := range m.chunks {
		cols := ch.colHi - ch.colLo
		for _, g := range ch.groups {
			stored += g.arr.Rows * m.cfg.Device.BitsPerCell * cols
		}
	}
	return float64(stored)/float64(dataBits) - 1
}

// NumGroups returns the total coded group count (ECU instances needed).
func (m *MappedMatrix) NumGroups() int {
	n := 0
	for _, ch := range m.chunks {
		n += len(ch.groups)
	}
	return n
}

// Arrays returns every crossbar array backing this matrix, one per coded
// group, so lifetime fault campaigns can inject stuck-at and drift faults
// into the live substrate. Callers must hold the owning layer's write lock
// (Engine.WithArrays) while mutating them.
func (m *MappedMatrix) Arrays() []*crossbar.Array {
	out := make([]*crossbar.Array, 0, m.NumGroups())
	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			out = append(out, g.arr)
		}
	}
	return out
}

// ScrubTarget is one coded group exposed to the patrol scrubber: the array
// to probe and repair, the code whose correction capability decides when a
// row must be spared, and the verify-miss probabilities the closed-loop
// re-programming path draws against.
type ScrubTarget struct {
	Arr *crossbar.Array
	// Code is nil for the NoECC baseline (the scrubber then spares on any
	// uncorrectable deviation, since there is no ECU to lean on).
	Code *core.Code
	// PulseFail is the per-level single-pulse verify-miss probability.
	PulseFail []float64
}

// ScrubTargets returns every coded group of this matrix in deterministic
// (chunk, group) order. Callers must hold the owning layer's write lock
// (Engine.WithScrubTargets) while probing or mutating the arrays.
func (m *MappedMatrix) ScrubTargets() []ScrubTarget {
	out := make([]ScrubTarget, 0, m.NumGroups())
	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			out = append(out, ScrubTarget{Arr: g.arr, Code: g.code, PulseFail: m.pulseFail})
		}
	}
	return out
}

// VerifyStats returns the accumulated program-verify accounting of the
// mapping pass (pulses, convergence histogram, giveups).
func (m *MappedMatrix) VerifyStats() crossbar.VerifyTally {
	return m.verify
}

// Codes returns the distinct code of every group, for inspection and the
// code-anatomy example.
func (m *MappedMatrix) Codes() []*core.Code {
	var out []*core.Code
	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			out = append(out, g.code)
		}
	}
	return out
}

package accel

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/nn"
	"repro/internal/stats"
)

// TestDebugGroupReadAccuracy is a white-box diagnostic: for one grouped ABN
// array it compares every noisy read outcome against the exact result and
// classifies the damage. It is skipped unless -run selects it explicitly
// with -v; kept as a regression probe for the correction pipeline.
func TestDebugGroupReadAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const out, in = 8, 112
	W := make([]float64, out*in)
	for i := range W {
		W[i] = rng.NormFloat64() * 0.002 // trained nets cluster near zero
	}
	W[0] = 0.5 // a few outliers set the quantization scale
	cfg := DefaultConfig(SchemeABN(10))
	cfg.Device.BitsPerCell = 2
	m, err := MapMatrix(cfg, out, in, func(r, c int) float64 { return W[r*in+c] }, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := m.chunks[0].groups[0]
	t.Logf("A=%d B=%d tableLen=%d covered=%.4g rows=%d", g.code.A, g.code.B, g.code.Table.Len(), g.code.Table.CoveredProb(), g.arr.Rows)
	hot := 0
	for r, gs := range g.giantRows {
		if len(gs) > 0 {
			t.Logf("hot row %d: %d prone cells (mag %v)", r, len(gs), gs[0].mag)
			hot++
		}
	}
	t.Logf("hot rows: %d; stuck rows: %d", hot, len(g.stuckRows))

	srng := stats.NewFast(7)
	bsn := m.sampler.BinomSnapshot()
	scr := NewScratch()
	ims := []BatchImage{{Scr: scr}}
	var st Stats
	bad, total, clean := 0, 0, 0
	exactWrongByStatus := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		// Random input mask.
		mask := make([]uint64, g.arr.MaskWords())
		for w := range mask {
			mask[w] = rng.Uint64()
		}
		mask[len(mask)-1] &= (1 << (in % 64)) - 1
		// Exact result.
		outs := make([]int, g.arr.Rows)
		for r := range outs {
			outs[r] = g.arr.IdealRowOutput(r, mask)
		}
		exact, _ := crossbar.ReduceRows(outs, cfg.Device.BitsPerCell)
		q, _ := g.code.Decode(exact)
		wantLanes := g.layout.Unpack(q)

		before := st
		scr.masks = [][]uint64{mask}
		g.precomputeBatch(m, ims)
		lanes := g.read(m, scr, 0, srng, &bsn, &st)
		status := "clean"
		if st.Corrected > before.Corrected {
			status = "corrected"
		} else if st.Detected > before.Detected {
			status = "detected"
		} else {
			clean++
		}
		total++
		wrong := false
		for i := range lanes {
			if lanes[i] != wantLanes[i] {
				wrong = true
				break
			}
		}
		if wrong {
			bad++
			exactWrongByStatus[status]++
			if exactWrongByStatus[status] <= 3 {
				var diffs []string
				for i := range lanes {
					if lanes[i] != wantLanes[i] {
						diffs = append(diffs, fmt.Sprintf("lane%d: got %d want %d", i, lanes[i], wantLanes[i]))
					}
				}
				t.Logf("WRONG (%s): %v", status, diffs)
			}
		}
	}
	t.Logf("total=%d clean=%d corrected=%d detected=%d retries=%d wrongLanes=%d byStatus=%v",
		total, clean, st.Corrected, st.Detected, st.Retries, bad, exactWrongByStatus)
}

// TestDebugTrainedLayerReads trains a small real layer and audits every
// group read against ground truth, separating correct corrections from
// silent miscorrections.
var useOutputLayer = false
var useFaults = false

func TestDebugTrainedLayerReadsWithFaults(t *testing.T) {
	useFaults = true
	defer func() { useFaults = false }()
	TestDebugTrainedLayerReads(t)
}

func TestDebugTrainedOutputLayerReads(t *testing.T) {
	useOutputLayer = true
	defer func() { useOutputLayer = false }()
	TestDebugTrainedLayerReads(t)
}

func TestDebugTrainedLayerReads(t *testing.T) {
	ds := dataset.SynthDigits(42, 1500, 0)
	rng := rand.New(rand.NewPCG(1, 1))
	net := &nn.Network{Name: "d", InShape: []int{1, 28, 28},
		Layers: []nn.Layer{&nn.Flatten{}, nn.NewDense(784, 64, rng), &nn.ReLU{}, nn.NewDense(64, 10, rng)}}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 3
	nn.Train(net, ds.Train, tc)

	cfg := DefaultConfig(SchemeABN(10))
	cfg.Device.BitsPerCell = 2
	if useFaults {
		cfg.Device.FailureRate = 0.001
	}
	layer := net.Layers[1].(*nn.Dense)
	if useOutputLayer {
		layer = net.Layers[3].(*nn.Dense)
	}
	m, err := MapMatrix(cfg, layer.Out, layer.In, layer.WeightAt, 1)
	if err != nil {
		t.Fatal(err)
	}
	srng := stats.NewFast(7)
	bsn := m.sampler.BinomSnapshot()
	scr := NewScratch()
	ims := []BatchImage{{Scr: scr}}
	var st Stats
	var lastRaw, lastFixed core.Word
	var lastStatus core.Status
	debugReadHook = func(g *group, raw, corrected core.Word, status core.Status) {
		lastRaw, lastFixed, lastStatus = raw, corrected, status
	}
	defer func() { debugReadHook = nil }()
	wrongByGroup := map[int]int{}
	totalWrong, totalReads := 0, 0
	for trial := 0; trial < 300; trial++ {
		gi := 0
		for _, ch := range m.chunks {
			chOff := ch.colLo
			_ = chOff
			for _, g := range ch.groups {
				mask := make([]uint64, g.arr.MaskWords())
				if useOutputLayer || len(ds.Train) == 0 {
					for w := range mask {
						mask[w] = rng.Uint64()
					}
					if r := g.arr.Cols % 64; r != 0 {
						mask[len(mask)-1] &= (1 << r) - 1
					}
				} else {
					// Real image bit-plane mask for this chunk's columns.
					img := ds.Train[trial%len(ds.Train)].Input.Reshape(784).Data
					qx := fixed.QuantizeUnsigned(img, cfg.InputBits)
					bit := trial % cfg.InputBits
					for j := 0; j < g.arr.Cols; j++ {
						if qx.Values[chOff+j]>>uint(bit)&1 == 1 {
							mask[j/64] |= 1 << uint(j%64)
						}
					}
				}
				outs := make([]int, g.arr.Rows)
				for r := range outs {
					outs[r] = g.arr.IdealRowOutput(r, mask)
				}
				exact, _ := crossbar.ReduceRows(outs, cfg.Device.BitsPerCell)
				q, _ := g.code.Decode(exact)
				want := g.layout.Unpack(q)
				scr.masks = [][]uint64{mask}
				g.precomputeBatch(m, ims)
				got := g.read(m, scr, 0, srng, &bsn, &st)
				totalReads++
				for i := range got {
					if got[i] != want[i] {
						totalWrong++
						wrongByGroup[gi]++
						if totalWrong <= 8 {
							// Reconstruct the true additive error and the applied syndrome.
							var eStr, sStr string
							if raw, borrow := lastRaw.Sub(exact); borrow == 0 {
								eStr = "+" + raw.String()
							} else {
								d, _ := exact.Sub(lastRaw)
								eStr = "-" + d.String()
							}
							if d, borrow := lastRaw.Sub(lastFixed); borrow == 0 {
								sStr = "+" + d.String()
							} else {
								d2, _ := lastFixed.Sub(lastRaw)
								sStr = "-" + d2.String()
							}
							t.Logf("group %d lane %d: got %d want %d status=%v E=%s applied=%s (A=%d tab=%d)",
								gi, i, got[i], want[i], lastStatus, eStr, sStr, g.code.A, g.code.Table.Len())
						}
						break
					}
				}
				gi++
			}
		}
	}
	t.Logf("reads=%d wrong=%d byGroup=%v stats=%+v", totalReads, totalWrong, wrongByGroup, st)
	// Dump the fault anatomy of pathological groups.
	gi2 := 0
	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			if wrongByGroup[gi2] > 0 {
				t.Logf("group %d: A=%d tab=%d cov=%.4g", gi2, g.code.A, g.code.Table.Len(), g.code.Table.CoveredProb())
				for r, srs := range g.stuckRows {
					for _, si := range srs {
						syn := core.SyndromeFromSteps(si.delta, r*cfg.Device.BitsPerCell)
						res := syn.Residue(g.code.A)
						entry, ok := g.code.Table.Lookup(res)
						t.Logf("  stuck row=%d delta=%d residue=%d inTable=%v same=%v modB=%d",
							r, si.delta, res, ok, ok && entry == syn, syn.Mag.ModU64(3))
					}
				}
			}
			gi2++
		}
	}
}

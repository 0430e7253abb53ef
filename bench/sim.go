package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/expt"
)

// simImage is one Monte-Carlo evaluation.
type simImage struct {
	idx        int
	start, end time.Time
	miss       bool
	stats      accel.Stats
}

// simCheckImages is how many leading images the output check re-evaluates
// through expt.EvaluateScheme.
const simCheckImages = 100

// missImages is how many leading images misclass_pct covers on workloads
// whose image count depends on the program's speed (the Monte-Carlo and
// the closed loop), so that it does not depend on how many the window fits.
const missImages = 300

// simRun is a finished offline Monte-Carlo workload.
type simRun struct {
	t0     time.Time
	images []simImage
	// checkFailed is set when the leading images' misclassification and
	// ECU counts differ from expt.EvaluateScheme's.
	checkFailed bool
	checked     int
}

// streamBase is the noise stream of image 0, as expt.EvaluateScheme keys it.
func streamBase(seed uint64) uint64 { return seed * 100_000 }

// runSim evaluates test images for the timed window with expt.runEval's
// loop: one accel.Session per worker, reseeded per image to
// streamBase+image and calling Forward. Workers claim images in order, so
// the images evaluated are always a prefix of the test split.
func runSim(st *stack, seed uint64, seconds int) *simRun {
	workers := runtime.NumCPU()
	run := &simRun{t0: time.Now()}
	deadline := run.t0.Add(time.Duration(seconds) * time.Second)
	var next atomic.Int64
	per := make([][]simImage, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			sess := st.eng.NewSession(seed*1000 + uint64(wk))
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				ex := st.test[i%len(st.test)]
				sess.Reseed(streamBase(seed) + uint64(i))
				sess.DrainStats()
				start := time.Now()
				logits := sess.Forward(ex.Input)
				end := time.Now()
				per[wk] = append(per[wk], simImage{idx: i, start: start, end: end,
					miss: logits.ArgMax() != ex.Label, stats: sess.DrainStats()})
			}
		}(wk)
	}
	wg.Wait()
	for _, imgs := range per {
		run.images = append(run.images, imgs...)
	}
	sort.Slice(run.images, func(i, j int) bool { return run.images[i].idx < run.images[j].idx })
	return run
}

// check re-runs the leading images through expt.EvaluateScheme at the same
// configuration and seed; its misclassification and ECU counts must equal
// the timed loop's over the same images.
func (run *simRun) check(st *stack, seed uint64) error {
	k := min(simCheckImages, len(run.images))
	var miss int
	var sum accel.Stats
	for _, im := range run.images[:k] {
		if im.miss {
			miss++
		}
		sum.Merge(im.stats)
	}
	ref, err := expt.EvaluateScheme(expt.Workload{Name: st.net.Name, Net: st.net, Test: st.test},
		expt.EvalConfig{Device: st.cfg.Device, Scheme: st.cfg.Scheme, Retries: st.cfg.Retries,
			Images: k, Seed: seed, Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	run.checked = k
	run.checkFailed = ref.Miss.Trials != k || ref.Miss.Hits != miss || ref.Stats != sum
	return nil
}

// window runs from the start of the loop to the last image's answer.
func (run *simRun) window() time.Duration {
	last := run.t0
	for _, im := range run.images {
		if im.end.After(last) {
			last = im.end
		}
	}
	return last.Sub(run.t0)
}

// endToEnd computes the Monte-Carlo workload's metrics. An image's latency
// is its Forward call; a failed check fails every image it covered.
func (run *simRun) endToEnd(limit time.Duration) (map[string]float64, error) {
	if len(run.images) < missImages {
		return nil, fmt.Errorf("misclass_pct needs %d images; the window fit %d", missImages, len(run.images))
	}
	ops := make([]outcome, len(run.images))
	lat := make([]float64, len(run.images))
	miss := 0
	for i, im := range run.images {
		d := im.end.Sub(im.start)
		lat[i] = ms(d)
		ops[i] = outcome{ok: !(run.checkFailed && i < run.checked), latency: d}
		if im.miss && i < missImages {
			miss++
		}
	}
	p95, err := tail(lat, 0.95)
	if err != nil {
		return nil, err
	}
	win := run.window()
	return map[string]float64{
		"p50_ms":       quantile(lat, 0.5),
		"p95_ms":       p95,
		"goodput_rps":  goodput(ops, limit, win),
		"img_per_s":    float64(len(lat)) / win.Seconds(),
		"misclass_pct": pct(miss, missImages),
		"fail_pct":     pct(run.failed(), len(lat)),
	}, nil
}

func (run *simRun) failed() int {
	if run.checkFailed {
		return run.checked
	}
	return 0
}

// spans records one span per evaluated image.
func (run *simRun) spans(tr *tracer) {
	for _, im := range run.images {
		tr.add(0, "accel.forward", im.start, im.end)
	}
}

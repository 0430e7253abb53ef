// Command mnnsim regenerates the tables and figures of "Making Memristive
// Neural Network Accelerators Reliable" (HPCA 2018) on the simulated
// substrate. Each subcommand reproduces one artifact:
//
//	mnnsim fig7    — 128-cell row current transient (Figure 7 / Section IV)
//	mnnsim fig10   — misclassification sweep, fault free (Figure 10)
//	mnnsim fig11   — misclassification sweep with 0.1% stuck cells (Figure 11)
//	mnnsim fig12   — MLP1 RTN sensitivity (Figure 12)
//	mnnsim table3  — MiniAlexNet top-1/top-5 (Table III)
//	mnnsim table4  — ECU area/power and overheads (Table IV, Section VIII-B)
//	mnnsim sec4    — row error-rate distribution summary (Section IV)
//	mnnsim ablate  — design-choice ablations (DESIGN.md)
//	mnnsim faults  — lifetime wear-out campaign: accuracy decay per scheme
//	                 as stuck-at and drift faults accumulate (Section III)
//	mnnsim scrub   — closed-loop lifetime study: the same campaign with and
//	                 without patrol scrubbing, comparing how long each arm
//	                 stays inside the software accuracy band
//	mnnsim replicas — spatial-redundancy lifetime study: the wear-out
//	                 campaign against serving pools with R = 1, 2, 3 replica
//	                 copies, reporting accuracy, availability, and the honest
//	                 R× hardware bill
//	mnnsim plan    — analytic SLO planner: predict accuracy per protection
//	                 config and print the cheapest per-layer ECC / replica /
//	                 spare-row / scrub plan meeting -plan-miss without a
//	                 single Monte-Carlo sweep
//	mnnsim batch   — batch-size invariance: run the test set one image per
//	                 pass (B=1) and -batch images per pass, verify
//	                 bit-identical logits, and report both throughputs
//	mnnsim devices — list the named device library: every registered
//	                 resistive-cell profile with its headline parameters
//	mnnsim scenarios — environment-adaptation matrix: device x scenario
//	                 timelines (heatwave, wear-spike, burst-storm) served
//	                 with a static vs closed-loop-adaptive protection
//	                 posture, reporting which arm holds accuracy and
//	                 availability
//	mnnsim all     — everything above except faults, scrub, replicas, plan,
//	                 and scenarios
//
// -device selects a named device profile from the library for the fault,
// scrub, replica, scenario, and plan studies (default hpca2018-rram, the
// paper's Table I cell).
//
// Results print to stdout; CSVs land under -out when set.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/hwmodel"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/predict"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnnsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnnsim", flag.ContinueOnError)
	images := fs.Int("images", 300, "test images per Monte-Carlo cell")
	trainN := fs.Int("train", 4000, "training examples per dataset")
	epochs := fs.Int("epochs", 5, "training epochs")
	seed := fs.Uint64("seed", 1, "experiment seed")
	deviceName := fs.String("device", noise.DefaultDeviceName,
		"named device profile for the lifetime/scenario/plan studies (list with: mnnsim devices)")
	workers := fs.Int("workers", 0, "Monte-Carlo worker goroutines per cell (0 = GOMAXPROCS)")
	bits := fs.String("bits", "1,2,3,4,5", "comma-separated bits-per-cell sweep")
	outDir := fs.String("out", "", "directory for CSV outputs (optional)")
	cache := fs.String("cache", "testdata/weights", "trained-weight cache directory")
	quiet := fs.Bool("q", false, "suppress progress lines")
	faultSteps := fs.Int("fault-steps", 4, "faults: lifetime steps in the wear-out campaign")
	faultStuck := fs.Float64("fault-stuck", 0.001, "faults: new stuck-cell probability per cell per step")
	faultLRS := fs.Float64("fault-lrs", 0.7, "faults: fraction of stuck faults pinned at LRS")
	faultDriftEvery := fs.Int("fault-drift-every", 2, "faults: drift wave every N steps (0 disables)")
	faultDriftRate := fs.Float64("fault-drift-rate", 0.002, "faults: per-cell drift probability per wave")
	stateDir := fs.String("state-dir", "", "faults: checkpoint aged arrays + campaign cursor per step and resume interrupted campaigns from there (empty disables)")
	spareRows := fs.Int("spare-rows", 8, "scrub: spare lines per array available for sparing")
	verifyIters := fs.Int("verify-iters", 5, "scrub: max write-verify pulses per programmed cell")
	scrubSteps := fs.Int("scrub-steps", 6, "scrub: lifetime steps in the scrub-on/off comparison")
	scrubSlack := fs.Float64("scrub-slack", 0.05, "scrub: allowed miss-rate excess over the software baseline")
	replicaList := fs.String("replicas", "1,2,3", "replicas: comma-separated R values to sweep")
	voteThreshold := fs.Int("vote-threshold", 3, "replicas: consecutive flagged reads before majority voting (0 disables)")
	planWorkload := fs.String("plan-workload", "MLP1", "plan: network to plan protection for (MLP1|MLP2|CNN1)")
	planScheme := fs.String("plan-scheme", "ABN-9", "plan: currently deployed scheme anchoring the search")
	planBits := fs.Int("plan-bits", 2, "plan: bits per cell")
	planStuck := fs.Float64("plan-stuck", 0.001, "plan: stuck-cell failure rate")
	planMiss := fs.Float64("plan-miss", 0.05, "plan: misclassification-rate SLO ceiling")
	planAvail := fs.Float64("plan-availability", 0.999, "plan: availability SLO floor (0 disables the replication search)")
	scenarioList := fs.String("scenarios", "", fmt.Sprintf("scenarios: comma-separated timeline names (empty = all: %v)", scenario.Names()))
	scenarioSteps := fs.Int("scenario-steps", 6, "scenarios: lifetime steps per matrix cell")
	scenarioScheme := fs.String("scenario-scheme", "ABN-9", "scenarios: protection scheme for the matrix")
	scenarioStuck := fs.Float64("scenario-stuck", 5e-7, "scenarios: per-cell stuck arrival probability per step that the wear windows multiply (breaker-armed serving needs far gentler wear than -fault-stuck)")
	batchSize := fs.Int("batch-size", 16, "batch: images per multi-image forward pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing subcommand (fig7|fig10|fig11|fig12|table3|table4|sec4|ablate|budget|plan|batch|faults|scrub|replicas|devices|scenarios|all)")
	}

	dev, err := noise.Device(*deviceName)
	if err != nil {
		return err
	}

	opt := expt.DefaultSweepOptions()
	opt.Device = dev
	opt.Images = *images
	opt.Seed = *seed
	opt.Workers = *workers
	opt.Train.Seed = *seed + 41
	opt.Train.Train = *trainN
	opt.Train.Epochs = *epochs
	opt.Train.CacheDir = *cache
	opt.Train.Log = os.Stderr
	if !*quiet {
		opt.Progress = expt.Progress{W: os.Stderr}
	}
	var bitList []int
	for _, tok := range splitCSV(*bits) {
		var b int
		if _, err := fmt.Sscanf(tok, "%d", &b); err != nil {
			return fmt.Errorf("bad -bits entry %q", tok)
		}
		bitList = append(bitList, b)
	}
	opt.Bits = bitList

	life := fault.LifetimeParams{
		Steps:        *faultSteps,
		StuckPerStep: *faultStuck,
		LRSFrac:      *faultLRS,
		DriftEvery:   *faultDriftEvery,
		DriftRate:    *faultDriftRate,
	}

	scrubOpt := scrubOptions{
		SpareRows:   *spareRows,
		VerifyIters: *verifyIters,
		Steps:       *scrubSteps,
		BandSlack:   *scrubSlack,
	}

	var repList []int
	for _, tok := range splitCSV(*replicaList) {
		var r int
		if _, err := fmt.Sscanf(tok, "%d", &r); err != nil {
			return fmt.Errorf("bad -replicas entry %q", tok)
		}
		repList = append(repList, r)
	}
	repOpt := replicaOptions{
		Replicas:      repList,
		VoteThreshold: *voteThreshold,
		SpareRows:     *spareRows,
	}

	planOpt := planOptions{
		Workload: *planWorkload,
		Scheme:   *planScheme,
		Bits:     *planBits,
		Stuck:    *planStuck,
		MaxMiss:  *planMiss,
		MinAvail: *planAvail,
		Device:   *deviceName,
	}

	scenOpt := scenarioOptions{
		Device:    *deviceName,
		Scenarios: splitCSV(*scenarioList),
		Steps:     *scenarioSteps,
		Scheme:    *scenarioScheme,
		Stuck:     *scenarioStuck,
		LRSFrac:   *faultLRS,
	}

	batchOpt := batchOptions{Size: *batchSize, Device: *deviceName}

	cmds := fs.Args()
	if len(cmds) == 1 && cmds[0] == "all" {
		cmds = []string{"fig7", "sec4", "table4", "fig10", "fig11", "fig12", "table3", "ablate"}
	}
	for _, cmd := range cmds {
		if err := dispatch(cmd, opt, *outDir, *stateDir, life, scrubOpt, repOpt, planOpt, scenOpt, batchOpt); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
	}
	return nil
}

// scenarioOptions carries the scenarios-subcommand knobs through dispatch.
type scenarioOptions struct {
	Device    string
	Scenarios []string
	Steps     int
	Scheme    string
	Stuck     float64
	LRSFrac   float64
}

// planOptions carries the plan-subcommand knobs through dispatch.
type planOptions struct {
	Workload string
	Scheme   string
	Bits     int
	Stuck    float64
	MaxMiss  float64
	MinAvail float64
	Device   string
}

// batchOptions carries the batch-subcommand knobs through dispatch.
type batchOptions struct {
	Size   int
	Device string
}

// scrubOptions carries the scrub-subcommand knobs through dispatch.
type scrubOptions struct {
	SpareRows   int
	VerifyIters int
	Steps       int
	BandSlack   float64
}

// replicaOptions carries the replicas-subcommand knobs through dispatch.
type replicaOptions struct {
	Replicas      []int
	VoteThreshold int
	SpareRows     int
}

func dispatch(cmd string, opt expt.SweepOptions, outDir, stateDirOpt string, life fault.LifetimeParams, scrubOpt scrubOptions, repOpt replicaOptions, planOpt planOptions, scenOpt scenarioOptions, batchOpt batchOptions) error {
	switch cmd {
	case "devices":
		fmt.Printf("\nNamed device library (-device NAME)\n")
		fmt.Printf("%-16s %5s %10s %10s %6s %8s %10s  %s\n",
			"name", "bits", "RLo", "RHi", "PRTN", "temp K", "sample", "description")
		for _, e := range noise.Devices() {
			name := e.Name
			if name == noise.DefaultDeviceName {
				name += "*"
			}
			fmt.Printf("%-16s %5d %10.3g %10.3g %6.3g %8.0f %10.3g  %s\n",
				name, e.Params.BitsPerCell, e.Params.RLo, e.Params.RHi,
				e.Params.PRTN, e.Params.TempK, e.Params.SampleFreq, e.Description)
		}
		fmt.Printf("(* = default, the paper's Table I cell)\n")
		return nil
	case "scenarios":
		sch, err := accel.ParseScheme(scenOpt.Scheme)
		if err != nil {
			return err
		}
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		// The matrix runs its own stuck-only wear, far gentler than
		// -fault-stuck: with the reactive ladder's breakers armed, one
		// stuck cell flags its whole column group on every read, so the
		// usable arrival range is ~1e-6..1e-5 per cell per step — the
		// band where patrol cadence (the controller's knob) decides
		// whether a layer's accumulated damage crosses the trip rate.
		// Drift stays off: wave rates big enough to move accuracy flag
		// effectively every group and trip every breaker instantly.
		cfg := expt.ScenarioSweepConfig{
			Scheme:    sch,
			Scenarios: scenOpt.Scenarios,
			Retries:   opt.Retries,
			Images:    opt.Images,
			Seed:      opt.Seed,
			Steps:     scenOpt.Steps,
			Lifetime: fault.LifetimeParams{
				StuckPerStep: scenOpt.Stuck,
				LRSFrac:      scenOpt.LRSFrac,
			},
		}
		// The matrix always spans the default three-device contrast; an
		// explicitly chosen fourth profile joins it.
		cfg.Devices = []string{noise.DefaultDeviceName, "high-rtn", "pcm-drift"}
		extra := true
		for _, d := range cfg.Devices {
			if d == scenOpt.Device {
				extra = false
			}
		}
		if extra {
			cfg.Devices = append(cfg.Devices, scenOpt.Device)
		}
		points, err := expt.RunScenarioSweep(workloads[0], cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderScenarios(os.Stdout, points)
		return writeCSV(outDir, "scenarios.csv", func(f *os.File) error {
			return expt.WriteScenariosCSV(f, points)
		})
	case "fig7":
		res, err := expt.RunFig7(circuit.DefaultConfig())
		if err != nil {
			return err
		}
		expt.RenderFig7(os.Stdout, res)
		return writeCSV(outDir, "fig7.csv", func(f *os.File) error {
			return expt.WriteFig7CSV(f, res)
		})
	case "sec4":
		cfg := circuit.DefaultConfig()
		cfg.Duration = 2.0
		res, err := expt.RunFig7(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("\nSection IV row error distribution (2 s transient)\n")
		fmt.Printf("total %.2f%%  high %.2f%%  low %.2f%%  (paper: 14.5%%, 13.9%%, 0.51%%)\n",
			100*res.TotalRate, 100*res.HighRate, 100*res.LowRate)
		return nil
	case "fig10":
		cells, err := expt.RunFig10(opt)
		if err != nil {
			return err
		}
		expt.RenderSweep(os.Stdout, cells)
		return writeCSV(outDir, "fig10.csv", func(f *os.File) error {
			return expt.WriteSweepCSV(f, cells)
		})
	case "fig11":
		cells, err := expt.RunFig11(opt)
		if err != nil {
			return err
		}
		expt.RenderSweep(os.Stdout, cells)
		return writeCSV(outDir, "fig11.csv", func(f *os.File) error {
			return expt.WriteSweepCSV(f, cells)
		})
	case "fig12":
		pts, err := expt.RunFig12(opt)
		if err != nil {
			return err
		}
		expt.RenderFig12(os.Stdout, pts)
		return nil
	case "table3":
		res, err := expt.RunTable3(opt)
		if err != nil {
			return err
		}
		expt.RenderTable3(os.Stdout, res)
		return nil
	case "table4":
		expt.RenderTable4(os.Stdout, expt.RunTable4())
		return nil
	case "budget":
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		tech := hwmodel.Default32nm()
		tile := hwmodel.DefaultTileConfig()
		spec := hwmodel.DefaultECUSpec()
		lat := hwmodel.DefaultLatencyModel()
		fmt.Printf("\nHardware budget per workload (ABN-9, 2-bit cells, 32 nm)\n")
		fmt.Printf("%-8s %8s %8s %6s %6s %12s %10s %14s\n",
			"net", "rows", "arrays", "IMAs", "tiles", "area (mm2)", "power (W)", "latency (us)")
		for _, w := range workloads {
			acfg := accel.DefaultConfig(accel.SchemeABN(9))
			eng, err := accel.Map(w.Net, acfg)
			if err != nil {
				return err
			}
			fp := tech.PlanNetwork(eng.PhysicalRows, eng.NumGroups(), tile, spec)
			reads := eng.NumGroups() * acfg.InputBits
			l := lat.InferenceLatency(reads, 0, fp.IMAs)
			fmt.Printf("%-8s %8d %8d %6d %6d %12.2f %10.2f %14.2f\n",
				w.Name, fp.PhysicalRows, fp.Arrays, fp.IMAs, fp.Tiles,
				fp.Area.AreaMM2, fp.Area.PowerMW/1000, l*1e6)
		}
		fmt.Printf("\ninference-only lifetime at weekly reprogramming, 1e6 endurance: %.0f years\n",
			hwmodel.SystemLifetimeYears(1e6, 1.0/7))
		return nil
	case "plan":
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		var w *expt.Workload
		for i := range workloads {
			if strings.EqualFold(workloads[i].Name, planOpt.Workload) {
				w = &workloads[i]
				break
			}
		}
		if w == nil {
			return fmt.Errorf("plan: unknown workload %q", planOpt.Workload)
		}
		sch, err := accel.ParseScheme(planOpt.Scheme)
		if err != nil {
			return err
		}
		acfg := accel.DefaultConfig(sch)
		acfg.Device = opt.Device
		acfg.DeviceName = planOpt.Device
		acfg.Device.BitsPerCell = planOpt.Bits
		acfg.Device.FailureRate = planOpt.Stuck
		acfg.Seed = opt.Seed
		test := w.Test
		if opt.Images > 0 && opt.Images < len(test) {
			test = test[:opt.Images]
		}
		cal, err := predict.Calibrate(w.Net, test, acfg.InputBits)
		if err != nil {
			return err
		}
		plan, err := predict.BuildPlan(w.Net, cal, predict.PlannerConfig{
			Base: acfg,
			SLO:  predict.SLO{MaxMiss: planOpt.MaxMiss, MinAvailability: planOpt.MinAvail},
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nProtection plan for %s (base %s, %d-bit cells, stuck %.4g)\n",
			w.Name, sch.Name, planOpt.Bits, planOpt.Stuck)
		fmt.Printf("SLO: miss <= %.3f", planOpt.MaxMiss)
		if planOpt.MinAvail > 0 {
			fmt.Printf(", availability >= %.4f", planOpt.MinAvail)
		}
		fmt.Println()
		fmt.Printf("%-6s %-10s %10s %12s %12s %10s %6s\n",
			"layer", "scheme", "p_detect", "var_out", "area (mm2)", "power (mW)", "kappa")
		for _, lp := range plan.Layers {
			fmt.Printf("%-6d %-10s %10.3g %12.4g %12.4f %10.2f %6.2f\n",
				lp.Layer, lp.Scheme, lp.PDetect, lp.VarOut, lp.AreaMM2, lp.PowerMW, lp.Kappa)
		}
		status := "satisfied"
		if !plan.Satisfied {
			status = "NOT satisfied (best effort)"
		}
		fmt.Printf("predicted miss %.4f (logit sigma %.4g)  availability %.6f  SLO %s\n",
			plan.Predicted.Miss, plan.Predicted.LogitSigma, plan.Availability, status)
		fmt.Printf("replicas %d  spare rows %d", plan.Replicas, plan.SpareRows)
		if plan.ScrubEvery > 0 {
			fmt.Printf("  scrub every %d inferences", plan.ScrubEvery)
		}
		fmt.Printf("  area %.2f mm2  power %.2f W  (%d configs searched)\n",
			plan.Bill.Area.AreaMM2, plan.Bill.Area.PowerMW/1000, plan.Searched)
		return writeCSV(outDir, "plan.csv", func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "layer,scheme,p_detect,var_out,area_mm2,power_mw,kappa"); err != nil {
				return err
			}
			for _, lp := range plan.Layers {
				if _, err := fmt.Fprintf(f, "%d,%s,%.6g,%.6g,%.6g,%.6g,%.4g\n",
					lp.Layer, lp.Scheme, lp.PDetect, lp.VarOut, lp.AreaMM2, lp.PowerMW, lp.Kappa); err != nil {
					return err
				}
			}
			return nil
		})
	case "batch":
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		w := workloads[0]
		dev := opt.Device
		dev.BitsPerCell = 2
		acfg := accel.DefaultConfig(accel.SchemeABN(9))
		acfg.Device = dev
		acfg.DeviceName = batchOpt.Device
		acfg.Seed = opt.Seed
		eng, err := accel.Map(w.Net, acfg)
		if err != nil {
			return err
		}
		test := w.Test
		if opt.Images > 0 && opt.Images < len(test) {
			test = test[:opt.Images]
		}
		b := batchOpt.Size
		if b < 1 {
			b = 1
		}
		// Reference: one image per pass (B=1), streams 100+i.
		sess := eng.NewSession(0)
		single := make([]*nn.Tensor, len(test))
		t0 := time.Now()
		for i, ex := range test {
			sess.Reseed(100 + uint64(i))
			single[i] = sess.Forward(ex.Input).Clone()
		}
		singleDur := time.Since(t0)
		// Batched: the same (engine, stream) pairs, b images per pass.
		bsess := eng.NewSession(0)
		defer bsess.Close()
		var mismatches int
		t0 = time.Now()
		for lo := 0; lo < len(test); lo += b {
			hi := lo + b
			if hi > len(test) {
				hi = len(test)
			}
			xs := make([]*nn.Tensor, 0, hi-lo)
			streams := make([]uint64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				xs = append(xs, test[i].Input)
				streams = append(streams, 100+uint64(i))
			}
			outs, errs := bsess.ForwardBatch(xs, streams)
			for i := range outs {
				if errs[i] != nil {
					return fmt.Errorf("batch: image %d: %w", lo+i, errs[i])
				}
				for k, v := range outs[i].Data {
					if math.Float64bits(v) != math.Float64bits(single[lo+i].Data[k]) {
						mismatches++
						break
					}
				}
			}
		}
		batchDur := time.Since(t0)
		fmt.Printf("\nBatch-size invariance (%s, ABN-9, 2-bit cells, %d images)\n", w.Name, len(test))
		fmt.Printf("B=1%-4s: %8.0f ns/image  %8.0f images/sec\n", "",
			float64(singleDur.Nanoseconds())/float64(len(test)),
			float64(len(test))/singleDur.Seconds())
		fmt.Printf("B=%-5d: %8.0f ns/image  %8.0f images/sec  (%.2fx)\n", b,
			float64(batchDur.Nanoseconds())/float64(len(test)),
			float64(len(test))/batchDur.Seconds(),
			singleDur.Seconds()/batchDur.Seconds())
		if mismatches > 0 {
			return fmt.Errorf("batch: %d images diverged bit-wise from B=1", mismatches)
		}
		fmt.Printf("bit-identity: all %d outputs at B=%d match B=1 exactly\n", len(test), b)
		return nil
	case "ablate":
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		res, err := expt.RunAblations(workloads[0], opt)
		if err != nil {
			return err
		}
		fmt.Printf("\nDesign-choice ablations (%s, 2-bit cells)\n", workloads[0].Name)
		for _, r := range res {
			fmt.Printf("%-12s miss=%.4f drift=%.4g corrected=%d detected=%d retries=%d\n",
				r.Name, r.Cell.MissRate(), r.Cell.Drift.Mean(),
				r.Cell.Stats.Corrected, r.Cell.Stats.Detected, r.Cell.Stats.Retries)
		}
		return nil
	case "faults":
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		w := workloads[0]
		dev := opt.Device
		dev.BitsPerCell = 2
		cfg := expt.FaultSweepConfig{
			Device:   dev,
			Schemes:  []accel.Scheme{accel.SchemeNoECC(), accel.SchemeStatic128(), accel.SchemeABN(9)},
			Retries:  opt.Retries,
			Images:   opt.Images,
			Seed:     opt.Seed,
			Workers:  opt.Workers,
			Lifetime: life,
			StateDir: stateDirOpt,
		}
		points, err := expt.RunFaultCampaign(w, cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderFaults(os.Stdout, points)
		return writeCSV(outDir, "faults.csv", func(f *os.File) error {
			return expt.WriteFaultsCSV(f, points)
		})
	case "scrub":
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		w := workloads[0]
		dev := opt.Device
		dev.BitsPerCell = 2
		cfg := expt.ScrubSweepConfig{
			Device:      dev,
			Scheme:      accel.SchemeABN(9),
			Retries:     opt.Retries,
			Images:      opt.Images,
			Seed:        opt.Seed,
			Workers:     opt.Workers,
			Lifetime:    expt.DefaultScrubLifetime(scrubOpt.Steps),
			SpareRows:   scrubOpt.SpareRows,
			VerifyIters: scrubOpt.VerifyIters,
			BandSlack:   scrubOpt.BandSlack,
		}
		res, err := expt.RunScrubSweep(w, cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderScrub(os.Stdout, res)
		return writeCSV(outDir, "scrub.csv", func(f *os.File) error {
			return expt.WriteScrubCSV(f, res)
		})
	case "replicas":
		workloads, err := expt.DigitWorkloads(opt.Train)
		if err != nil {
			return err
		}
		w := workloads[0]
		dev := opt.Device
		dev.BitsPerCell = 2
		cfg := expt.ReplicaSweepConfig{
			Device:        dev,
			Scheme:        accel.SchemeABN(9),
			Retries:       opt.Retries,
			Images:        opt.Images,
			Seed:          opt.Seed,
			Replicas:      repOpt.Replicas,
			VoteThreshold: repOpt.VoteThreshold,
			SpareRows:     repOpt.SpareRows,
			Lifetime:      life,
		}
		points, err := expt.RunReplicaSweep(w, cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderReplicas(os.Stdout, points)
		return writeCSV(outDir, "replicas.csv", func(f *os.File) error {
			return expt.WriteReplicasCSV(f, points)
		})
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func writeCSV(dir, name string, write func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/serve"
)

// The weights every workload uses: the mnnserve defaults (training seed 42,
// 4000 examples, 5 epochs). The benchmark never trains: a missing file is
// an error.
const (
	weightSeed   = 42
	weightDir    = "testdata/weights"
	weightSuffix = "-s42-n4000-e5.gob"
)

func weightPath(net string) string { return filepath.Join(weightDir, net+weightSuffix) }

// loadNet builds the named network and restores its cached weights.
func loadNet(name string) (*nn.Network, error) {
	var net *nn.Network
	switch name {
	case "MLP1":
		net = nn.NewMLP1(weightSeed)
	case "CNN1":
		net = nn.NewCNN1(weightSeed)
	default:
		return nil, fmt.Errorf("no network %q", name)
	}
	if err := net.LoadWeights(weightPath(name)); err != nil {
		return nil, fmt.Errorf("weight cache miss for %s (the benchmark never trains): %w", name, err)
	}
	return net, nil
}

// testImages returns the first n images of the SynthDigits test split the
// weights were evaluated on. The test split has its own RNG stream, so
// generating no training images leaves it unchanged.
func testImages(n int) []nn.Example {
	return dataset.SynthDigits(weightSeed, 0, n).Test
}

// accelConfig is the benchmark's accelerator: ABN-9 on the hpca2018-rram
// device at 2 bits per cell, with the given map-time stuck-cell rate and
// map seed.
func accelConfig(stuck float64, seed uint64) (accel.Config, error) {
	dev, err := noise.Device(noise.DefaultDeviceName)
	if err != nil {
		return accel.Config{}, err
	}
	cfg := accel.DefaultConfig(accel.SchemeABN(9))
	cfg.Device = dev
	cfg.DeviceName = noise.DefaultDeviceName
	cfg.Device.BitsPerCell = 2
	cfg.Device.FailureRate = stuck
	cfg.Seed = seed
	return cfg, nil
}

// setupTimes splits one set-up into its steps; total includes the
// warm-up.
type setupTimes struct {
	load, mapping, sched, total time.Duration
}

// stack is one set-up's product: the loaded network and images, the mapped
// engine and, for serving workloads, the running scheduler.
type stack struct {
	net   *nn.Network
	test  []nn.Example
	cfg   accel.Config
	eng   *accel.Engine
	sched *serve.Scheduler
	times setupTimes
}

// close stops the stack's scheduler, if any and not yet stopped.
func (s *stack) close() error {
	if s.sched == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := s.sched.Close(ctx)
	s.sched = nil
	return err
}

// setUp loads, maps and (for serving workloads) starts a scheduler, then
// runs the fixed warm-up. It is what setup_s times.
func setUp(w workload, seed uint64, images int) (*stack, error) {
	t0 := time.Now()
	net, err := loadNet(w.net)
	if err != nil {
		return nil, err
	}
	st := &stack{net: net, test: testImages(images)}
	t1 := time.Now()
	mapSeed := uint64(1) // mnnserve's default -seed
	if !w.serving() {
		mapSeed = seed // a Monte-Carlo cell draws its stuck cells from the seed
	}
	if st.cfg, err = accelConfig(w.stuck, mapSeed); err != nil {
		return nil, err
	}
	if st.eng, err = accel.Map(net, st.cfg); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if w.serving() {
		if st.sched, err = serve.NewScheduler(st.eng, w.schedConfig()); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	if err := st.warmUp(); err != nil {
		st.close()
		return nil, err
	}
	st.times = setupTimes{load: t1.Sub(t0), mapping: t2.Sub(t1), sched: t3.Sub(t2), total: time.Since(t0)}
	return st, nil
}

// warmUpImages is the fixed warm-up: enough single-image requests to give
// every worker work and arm the coalesced path, with noise streams no
// timed request uses.
const warmUpImages = 8

func (st *stack) warmUp() error {
	xs := make([]*nn.Tensor, warmUpImages)
	for i := range xs {
		xs[i] = st.test[i%len(st.test)].Input
	}
	if st.sched == nil {
		sess := st.eng.NewSession(0)
		for i, x := range xs[:2] {
			sess.Reseed(1<<40 + uint64(i))
			sess.Forward(x)
		}
		return nil
	}
	_, err := st.sched.PredictBatch(context.Background(), xs, 1<<40, 0)
	return err
}

// setUpRepeated sets up n times and keeps the last stack; setup_s is the
// median. Earlier stacks are closed and collected before the next set-up.
func setUpRepeated(w workload, seed uint64, images, n int) (*stack, []time.Duration, error) {
	var st *stack
	var totals []time.Duration
	for i := 0; i < n; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = setUp(w, seed, images); err != nil {
			return nil, nil, err
		}
		totals = append(totals, st.times.total)
	}
	return st, totals, nil
}

// provenance records where and on what a result was measured.
type provenance struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu_model"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	SourceHash string            `json:"source_sha256"`
	Weights    map[string]string `json:"weights_sha256"`
}

func collectProvenance(w workload, seed uint64, seconds int, traced bool) (provenance, error) {
	p := provenance{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown",
		Weights: map[string]string{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				p.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = true
			}
		}
		if dirty {
			p.Commit += "+modified"
		}
	}
	var err error
	if p.Weights[weightPath(w.net)], err = fileHash(weightPath(w.net)); err != nil {
		return p, fmt.Errorf("weight cache miss for %s (the benchmark never trains): %w", w.net, err)
	}
	p.SourceHash, err = sourceHash(".")
	return p, err
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("unknown" when
// it is unreadable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sourceHash identifies the code measured when no git metadata is at hand:
// the sha256 over the paths and contents of every .go file and go.mod in
// the tree, in path order, skipping the build directory.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

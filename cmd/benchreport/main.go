// Command benchreport runs the repo benchmarks, records them as JSON, and
// compares runs against a committed baseline so allocation regressions on
// the MVM hot path fail loudly in CI.
//
//	benchreport run  [-bench regex] [-benchtime d] [-count n] [-pkg ./...] -out BENCH.json
//	benchreport parse -in bench.txt -out BENCH.json
//	benchreport compare -baseline BENCH_1.json -current BENCH.json [-ns-tol 0.25] [-ns-gate]
//
// run shells out to `go test -run '^$' -bench ... -benchmem`, parses the
// standard benchmark output, and writes one JSON record per benchmark.
// parse does the same from a saved output file. compare joins baseline and
// current on benchmark name and exits nonzero iff any shared benchmark's
// allocs/op increased or any baseline benchmark is missing from the current
// run (a vanished benchmark would otherwise drop out of the gate silently;
// subbenchmark names are therefore kept machine-independent). ns/op is
// advisory by default: timing on shared CI runners is too noisy to gate on,
// so slower wall times only print a warning (tolerance set by -ns-tol,
// fraction over baseline). -ns-gate opts in to failing on those ns/op
// regressions too, for runs on quiet dedicated hardware where a generous
// -ns-tol absorbs scheduler noise but still catches real slowdowns.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result. Ns is ns/op, Bytes is B/op, Allocs is
// allocs/op; Bytes and Allocs are -1 when -benchmem output was absent.
type Record struct {
	Name   string  `json:"name"`
	Iters  int64   `json:"iters"`
	Ns     float64 `json:"ns_per_op"`
	Bytes  int64   `json:"bytes_per_op"`
	Allocs int64   `json:"allocs_per_op"`
}

// Report is the file format of BENCH_1.json.
type Report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime,omitempty"`
	Records   []Record `json:"records"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: benchreport run|parse|compare [flags]")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "parse":
		return cmdParse(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want run, parse, or compare)", args[0])
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	bench := fs.String("bench", ".", "benchmark regex passed to -bench")
	benchtime := fs.String("benchtime", "1s", "value passed to -benchtime")
	count := fs.Int("count", 1, "value passed to -count; ns/op is the per-name minimum across repeats")
	pkg := fs.String("pkg", ".", "package pattern to benchmark")
	out := fs.String("out", "", "output JSON path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	recs, err := parseBench(strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	return writeReport(*out, Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: *benchtime,
		Records:   recs,
	})
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ContinueOnError)
	in := fs.String("in", "", "saved `go test -bench` output (default stdin)")
	out := fs.String("out", "", "output JSON path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	recs, err := parseBench(r)
	if err != nil {
		return err
	}
	return writeReport(*out, Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Records:   recs,
	})
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("baseline", "", "committed baseline JSON")
	curPath := fs.String("current", "", "freshly generated JSON")
	nsTol := fs.Float64("ns-tol", 0.25, "ns/op slowdown tolerance (fraction over baseline)")
	nsGate := fs.Bool("ns-gate", false, "fail on ns/op regressions beyond -ns-tol instead of just warning")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("compare needs -baseline and -current")
	}
	base, err := readReport(*basePath)
	if err != nil {
		return err
	}
	cur, err := readReport(*curPath)
	if err != nil {
		return err
	}
	baseBy := byName(base.Records)
	curBy := byName(cur.Records)
	var shared []string
	var regressions []string
	for name := range baseBy {
		if _, ok := curBy[name]; ok {
			shared = append(shared, name)
		} else {
			regressions = append(regressions, fmt.Sprintf("%s: in the baseline, missing from the current run", name))
		}
	}
	sort.Strings(shared)
	sort.Strings(regressions)
	if len(shared) == 0 {
		return fmt.Errorf("no benchmark names shared between %s and %s", *basePath, *curPath)
	}
	for _, name := range shared {
		b, c := baseBy[name], curBy[name]
		if b.Allocs >= 0 && c.Allocs > b.Allocs {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %d -> %d", name, b.Allocs, c.Allocs))
		}
		if b.Ns > 0 && c.Ns > b.Ns*(1+*nsTol) {
			msg := fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.0f%%)",
				name, b.Ns, c.Ns, 100*(c.Ns/b.Ns-1))
			if *nsGate {
				regressions = append(regressions, msg)
			} else {
				fmt.Println("advisory:", msg)
			}
		}
	}
	fmt.Printf("compared %d shared benchmarks (%d baseline-only, %d current-only)\n",
		len(shared), len(base.Records)-len(shared), len(cur.Records)-len(shared))
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "FAIL:", r)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(regressions))
	}
	if *nsGate {
		fmt.Println("ok: no allocation or ns/op regressions")
	} else {
		fmt.Println("ok: no allocation regressions")
	}
	return nil
}

// benchLine matches `BenchmarkFoo-8  1234  56789 ns/op  0 B/op  0 allocs/op`
// with the -benchmem columns optional and arbitrary extra metrics ignored.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

var memCols = regexp.MustCompile(`\s(\d+) B/op\s+(\d+) allocs/op`)

// parseBench reads standard `go test -bench` output. Repeated names
// (-count > 1) collapse to the minimum ns/op and the maximum allocs/op:
// min time is the standard noise filter, max allocs is the conservative
// regression gate.
func parseBench(r io.Reader) ([]Record, error) {
	byIdx := map[string]int{}
	var recs []Record
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		rec := Record{Name: m[1], Iters: iters, Ns: ns, Bytes: -1, Allocs: -1}
		if mm := memCols.FindStringSubmatch(m[4]); mm != nil {
			rec.Bytes, _ = strconv.ParseInt(mm[1], 10, 64)
			rec.Allocs, _ = strconv.ParseInt(mm[2], 10, 64)
		}
		if i, ok := byIdx[rec.Name]; ok {
			if rec.Ns < recs[i].Ns {
				recs[i].Ns, recs[i].Iters = rec.Ns, rec.Iters
			}
			if rec.Allocs > recs[i].Allocs {
				recs[i].Allocs = rec.Allocs
			}
			if rec.Bytes > recs[i].Bytes {
				recs[i].Bytes = rec.Bytes
			}
			continue
		}
		byIdx[rec.Name] = len(recs)
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return recs, nil
}

func byName(recs []Record) map[string]Record {
	m := make(map[string]Record, len(recs))
	for _, r := range recs {
		m[r.Name] = r
	}
	return m
}

func writeReport(path string, rep Report) error {
	sort.Slice(rep.Records, func(i, j int) bool { return rep.Records[i].Name < rep.Records[j].Name })
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func readReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

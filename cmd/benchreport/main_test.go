package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOut = `goos: linux
goarch: amd64
pkg: repro
BenchmarkNoisyMVMNoECC-8   	   18514	     47196 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoisyMVMNoECC-8   	   19017	     43661 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeBatch/workers=4-8         	     100	  10000000 ns/op	        16.00 images/sec	    2048 B/op	      12 allocs/op
BenchmarkRowSample-8       	  500000	      2100 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	recs, err := parseBench(strings.NewReader(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Record{}
	for _, r := range recs {
		got[r.Name] = r
	}
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(got), recs)
	}
	// -count repeats collapse to min ns / max allocs.
	mvm := got["BenchmarkNoisyMVMNoECC"]
	if mvm.Ns != 43661 || mvm.Allocs != 0 || mvm.Bytes != 0 {
		t.Fatalf("NoECC collapsed wrong: %+v", mvm)
	}
	// GOMAXPROCS suffix strips; subbench path and custom metrics survive.
	sb := got["BenchmarkServeBatch/workers=4"]
	if sb.Allocs != 12 || sb.Bytes != 2048 {
		t.Fatalf("ServeBatch parsed wrong: %+v", sb)
	}
	// No -benchmem columns -> sentinel -1.
	if rs := got["BenchmarkRowSample"]; rs.Allocs != -1 || rs.Bytes != -1 {
		t.Fatalf("RowSample parsed wrong: %+v", rs)
	}
}

func writeTempReport(t *testing.T, name string, recs []Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := writeReport(path, Report{Records: recs}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := writeTempReport(t, "base.json", []Record{
		{Name: "BenchmarkA", Ns: 100, Allocs: 0, Bytes: 0},
		{Name: "BenchmarkB", Ns: 50, Allocs: 1, Bytes: 8},
		{Name: "BenchmarkNoMem", Ns: 10, Allocs: -1, Bytes: -1},
	})

	// Same allocs, slower ns: advisory only, exit ok. A benchmark only the
	// current run has is new, not a regression.
	cur := writeTempReport(t, "ok.json", []Record{
		{Name: "BenchmarkA", Ns: 150, Allocs: 0, Bytes: 0},
		{Name: "BenchmarkB", Ns: 50, Allocs: 1, Bytes: 8},
		{Name: "BenchmarkOnlyCurrent", Ns: 1, Allocs: 99, Bytes: 999},
		{Name: "BenchmarkNoMem", Ns: 40, Allocs: -1, Bytes: -1},
	})
	if err := cmdCompare([]string{"-baseline", base, "-current", cur}); err != nil {
		t.Fatalf("ns-only slowdown must not fail: %v", err)
	}

	// A baseline benchmark missing from the current run fails the gate
	// instead of silently dropping out of it.
	missing := writeTempReport(t, "missing.json", []Record{
		{Name: "BenchmarkA", Ns: 100, Allocs: 0, Bytes: 0},
		{Name: "BenchmarkNoMem", Ns: 10, Allocs: -1, Bytes: -1},
	})
	if err := cmdCompare([]string{"-baseline", base, "-current", missing}); err == nil {
		t.Fatal("a baseline benchmark missing from the current run must fail compare")
	}

	// Allocation growth on a shared benchmark: hard failure.
	bad := writeTempReport(t, "bad.json", []Record{
		{Name: "BenchmarkA", Ns: 90, Allocs: 2, Bytes: 64},
	})
	if err := cmdCompare([]string{"-baseline", base, "-current", bad}); err == nil {
		t.Fatal("allocs/op increase must fail compare")
	}

	// -ns-gate upgrades the same ns-only slowdown to a hard failure...
	if err := cmdCompare([]string{"-baseline", base, "-current", cur, "-ns-gate"}); err == nil {
		t.Fatal("-ns-gate must fail on ns/op regressions beyond -ns-tol")
	}
	// ...but respects the tolerance: +300% worst case is fine under -ns-tol 5.
	if err := cmdCompare([]string{"-baseline", base, "-current", cur, "-ns-gate", "-ns-tol", "5.0"}); err != nil {
		t.Fatalf("-ns-gate within tolerance must pass: %v", err)
	}
}

func TestParseNoBenchmarks(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Fatal("want error on benchmark-free output")
	}
}

func TestReadReportRoundTrip(t *testing.T) {
	path := writeTempReport(t, "r.json", []Record{{Name: "BenchmarkZ", Ns: 5, Allocs: 3, Bytes: 48}})
	rep, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || rep.Records[0].Name != "BenchmarkZ" {
		t.Fatalf("round trip lost data: %+v", rep)
	}
	if _, err := readReport(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist, got %v", err)
	}
}

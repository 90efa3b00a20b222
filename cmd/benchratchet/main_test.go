package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: tracescale
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig5              	    1531	    176932 ns/op	  187777 B/op	    1680 allocs/op
BenchmarkSelectExhaustive  	    7602	     31571 ns/op	    1416 B/op	      18 allocs/op
BenchmarkSelectGreedy-4    	   77840	      2658 ns/op	    1984 B/op	      31 allocs/op
BenchmarkSelectBranchBound-16	   91202	      2823 ns/op	    1832 B/op	      31 allocs/op
PASS
ok  	tracescale	1.270s
`

func TestParseBenchOutput(t *testing.T) {
	results, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(results), results)
	}
	// GOMAXPROCS suffixes (-4, -16) are stripped so keys are stable across
	// machines.
	greedy, ok := results["BenchmarkSelectGreedy"]
	if !ok {
		t.Fatalf("BenchmarkSelectGreedy missing (keys: %v)", results)
	}
	if greedy.NsPerOp != 2658 || greedy.BytesPerOp != 1984 || greedy.AllocsPerOp != 31 {
		t.Errorf("greedy = %+v, want 2658 ns / 1984 B / 31 allocs", greedy)
	}
	if ex := results["BenchmarkSelectExhaustive"]; ex.NsPerOp != 31571 || ex.AllocsPerOp != 18 {
		t.Errorf("exhaustive = %+v", ex)
	}
}

func TestCompareWithinBand(t *testing.T) {
	base := map[string]Result{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10}}
	cur := map[string]Result{"BenchmarkA": {NsPerOp: 1200, AllocsPerOp: 10}}
	report, regressions := compare(base, cur, 0.25)
	if regressions != 0 {
		t.Fatalf("+20%% inside a 25%% band counted as a regression:\n%s", report)
	}
	if !strings.Contains(report, "ok") {
		t.Errorf("report lacks the ok line:\n%s", report)
	}
}

func TestCompareRegressions(t *testing.T) {
	base := map[string]Result{
		"BenchmarkSlow":    {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkAllocs":  {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkDropped": {NsPerOp: 500, AllocsPerOp: 5},
	}
	cur := map[string]Result{
		"BenchmarkSlow":   {NsPerOp: 1300, AllocsPerOp: 10}, // +30% ns/op
		"BenchmarkAllocs": {NsPerOp: 1000, AllocsPerOp: 14}, // +40% allocs
		"BenchmarkNew":    {NsPerOp: 1, AllocsPerOp: 1},     // unknown to baseline
	}
	report, regressions := compare(base, cur, 0.25)
	if regressions != 4 {
		t.Fatalf("regressions = %d, want 4 (slow, allocs, dropped, new):\n%s", regressions, report)
	}
	for _, want := range []string{"REGRESS  BenchmarkSlow", "REGRESS  BenchmarkAllocs",
		"MISSING  BenchmarkDropped", "NEW      BenchmarkNew"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// B/op and allocs/op keep their 10% band whatever -tolerance allows
// ns/op: under -tolerance 1.0 a B/op-only or an allocs-only regression
// still fails, while growth inside the band passes.
func TestCompareMemoryBand(t *testing.T) {
	base := map[string]Result{
		"BenchmarkBytes":  {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkAllocs": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkInside": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
	}
	cur := map[string]Result{
		"BenchmarkBytes":  {NsPerOp: 1000, BytesPerOp: 1150, AllocsPerOp: 10},  // +15% B/op
		"BenchmarkAllocs": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 12},  // +20% allocs
		"BenchmarkInside": {NsPerOp: 1900, BytesPerOp: 1090, AllocsPerOp: 109}, // +90% ns, +9% each
	}
	report, regressions := compare(base, cur, 1.0)
	if regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (bytes, allocs):\n%s", regressions, report)
	}
	for _, want := range []string{"REGRESS  BenchmarkBytes", "REGRESS  BenchmarkAllocs", "ok       BenchmarkInside"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestRunParseModeEndToEnd drives the CLI through -parse: update a
// baseline, compare clean, then regress one metric and watch the gate trip.
func TestRunParseModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "BENCH_baseline.json")
	out := filepath.Join(dir, "BENCH_select.json")

	var buf bytes.Buffer
	if err := run([]string{"-parse", benchTxt, "-baseline", baseline, "-out", out, "-update"}, &buf); err != nil {
		t.Fatalf("update: %v", err)
	}
	if !strings.Contains(buf.String(), "baseline") {
		t.Errorf("update output: %q", buf.String())
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("report not written: %v", err)
	}

	buf.Reset()
	if err := run([]string{"-parse", benchTxt, "-baseline", baseline, "-out", out}, &buf); err != nil {
		t.Fatalf("identical run failed the ratchet: %v\n%s", err, buf.String())
	}

	slow := strings.Replace(benchOutput, "2658 ns/op", "9999 ns/op", 1)
	if err := os.WriteFile(benchTxt, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err := run([]string{"-parse", benchTxt, "-baseline", baseline, "-out", out}, &buf)
	if err == nil {
		t.Fatalf("a 3.7x ns/op regression passed the ratchet:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "regressed") || !strings.Contains(buf.String(), "REGRESS  BenchmarkSelectGreedy") {
		t.Errorf("err = %v, report:\n%s", err, buf.String())
	}
}

func TestRunMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-parse", benchTxt, "-baseline", filepath.Join(dir, "absent.json"), "-out", ""}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-update") {
		t.Errorf("missing baseline err = %v, want a hint to run -update", err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}); err != errUsage {
		t.Errorf("unknown flag err = %v, want errUsage", err)
	}
	if err := run([]string{"positional"}, &bytes.Buffer{}); err != errUsage {
		t.Errorf("positional arg err = %v, want errUsage", err)
	}
}

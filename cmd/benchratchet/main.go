// Command benchratchet is the CI performance ratchet for the Step-2
// selectors: it runs the selection benchmarks, writes their ns/op,
// B/op, and allocs/op to a JSON report, and compares the report against a
// committed baseline — a >25% ns/op regression (the -tolerance band), or a
// >10% B/op or allocs/op regression (the fixed memBand), on any benchmark
// fails the run.
//
//	benchratchet                        # run, write BENCH_select.json, compare
//	benchratchet -update                # run and (re)write BENCH_baseline.json
//	benchratchet -tolerance 0.5         # widen the ns/op band (noisy runners)
//	benchratchet -parse bench.txt       # ingest existing `go test -bench` output
//
// The benchmark set defaults to the selector quartet the ratchet exists
// for — the exhaustive scan, the Fig. 5 end-to-end pipeline, greedy, and
// branch-and-bound — so a pruning or registry change that slows selection
// shows up as a number, not a hunch. Like tracelint's driver, the tool
// shells out to the go command itself (zero dependencies).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "benchratchet:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// defaultBench is the ratcheted benchmark set: the selector strategies,
// the end-to-end Fig. 5 pipeline they sit inside, session analysis plus
// selection at growing instance counts and universe sizes, trace parsing
// and corpus mining, the product's execution count, the ambiguity pair
// count, the SoC simulator on one T2 scenario, one T2 scenario's
// fault-injection campaign (simulation, run diff and debugging), and the
// Table-3 case studies (simulation, selection and debugging).
const defaultBench = "BenchmarkSelectExhaustive$|BenchmarkFig5$|BenchmarkSelectGreedy$|BenchmarkSelectBranchBound$|BenchmarkSessionScale$|BenchmarkSessionUniverse120$|BenchmarkTraceParse$|BenchmarkMineCorpus$|BenchmarkTotalPaths$|BenchmarkPairCount$|BenchmarkSoCSimScenario1$|BenchmarkCampaignScenario1$|BenchmarkTable3$"

// memBand is the allowed relative regression of B/op and allocs/op. Unlike
// ns/op, both counts barely move with the machine's load, so they keep a
// tight band that -tolerance does not widen.
const memBand = 0.10

// Result is one benchmark's measured cost — the JSON schema of both the
// report and the committed baseline.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// run executes one benchratchet invocation against the given argument
// list, writing the human-readable comparison to w. main is a thin
// exit-code shim around it, so tests drive the full CLI in-process.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchratchet", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", defaultBench, "benchmark regex passed to go test -bench")
		benchtime = fs.String("benchtime", "300ms", "go test -benchtime per benchmark")
		dir       = fs.String("dir", ".", "module directory go test runs in")
		out       = fs.String("out", "BENCH_select.json", "write the measured report here ('' = skip)")
		baseline  = fs.String("baseline", "BENCH_baseline.json", "committed baseline to ratchet against")
		tolerance = fs.Float64("tolerance", 0.25, "allowed relative ns/op regression (0.25 = +25%); B/op and allocs/op keep a fixed 10% band")
		update    = fs.Bool("update", false, "rewrite the baseline from this run instead of comparing")
		parse     = fs.String("parse", "", "parse this `go test -bench` output file instead of running benchmarks")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return errUsage
	}

	var (
		results map[string]Result
		err     error
	)
	if *parse != "" {
		f, err2 := os.Open(*parse)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		results, err = parseBench(f)
	} else {
		results, err = runBench(*dir, *bench, *benchtime)
	}
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmarks matched %q", *bench)
	}

	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			return err
		}
	}
	if *update {
		if err := writeJSON(*baseline, results); err != nil {
			return err
		}
		fmt.Fprintf(w, "baseline %s updated (%d benchmarks)\n", *baseline, len(results))
		return nil
	}

	base, err := readJSON(*baseline)
	if err != nil {
		return fmt.Errorf("reading baseline (run with -update to create it): %w", err)
	}
	report, regressions := compare(base, results, *tolerance)
	fmt.Fprint(w, report)
	if regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond the %.0f%% ns/op or %.0f%% memory band", regressions, *tolerance*100, memBand*100)
	}
	return nil
}

// runBench shells out to `go test -bench` in dir and parses its output.
func runBench(dir, bench, benchtime string) (map[string]Result, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchmem", "-benchtime", benchtime, ".")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = strings.TrimSpace(stdout.String())
		}
		return nil, fmt.Errorf("go test -bench %s: %v: %s", bench, err, msg)
	}
	return parseBench(&stdout)
}

// parseBench extracts per-benchmark metrics from `go test -bench -benchmem`
// output. A line looks like
//
//	BenchmarkSelectGreedy-4   77840   2658 ns/op   1984 B/op   31 allocs/op
//
// the -4 suffix is the GOMAXPROCS decoration and is stripped, so reports
// from machines with different core counts compare under the same keys.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res Result
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("parsing %q: %v", sc.Text(), err)
				}
				res.NsPerOp = f
				seen = true
			case "B/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("parsing %q: %v", sc.Text(), err)
				}
				res.BytesPerOp = n
			case "allocs/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("parsing %q: %v", sc.Text(), err)
				}
				res.AllocsPerOp = n
			}
		}
		if seen {
			out[name] = res
		}
	}
	return out, sc.Err()
}

// compare checks every baseline benchmark against the current run: a
// missing benchmark, an ns/op more than tolerance above its baseline, or a
// B/op or allocs/op more than memBand above its baseline is a regression;
// a benchmark the baseline has never seen demands a baseline update
// (otherwise it would ride ungated forever). Improvements are reported but
// never gate — the ratchet tightens by re-running -update.
func compare(base, cur map[string]Result, tolerance float64) (string, int) {
	var b strings.Builder
	regressions := 0
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base[name]
		got, ok := cur[name]
		if !ok {
			fmt.Fprintf(&b, "MISSING  %s: in baseline but not in this run\n", name)
			regressions++
			continue
		}
		nsRel := rel(got.NsPerOp, want.NsPerOp)
		bytesRel := rel(float64(got.BytesPerOp), float64(want.BytesPerOp))
		allocRel := rel(float64(got.AllocsPerOp), float64(want.AllocsPerOp))
		status := "ok      "
		if nsRel > tolerance || bytesRel > memBand || allocRel > memBand {
			status = "REGRESS "
			regressions++
		}
		fmt.Fprintf(&b, "%s %s: %.0f ns/op (baseline %.0f, %+.1f%%), %d B/op (baseline %d), %d allocs/op (baseline %d)\n",
			status, name, got.NsPerOp, want.NsPerOp, nsRel*100, got.BytesPerOp, want.BytesPerOp, got.AllocsPerOp, want.AllocsPerOp)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(&b, "NEW      %s: not in baseline — run benchratchet -update\n", name)
			regressions++
		}
	}
	return b.String(), regressions
}

// rel is the relative change of got over base; a zero base only regresses
// when got is nonzero.
func rel(got, base float64) float64 {
	if base == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return (got - base) / base
}

func writeJSON(path string, results map[string]Result) error {
	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

func readJSON(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]Result{}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

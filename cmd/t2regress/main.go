// Command t2regress runs the fc1-style regression suite on the
// transaction-level OpenSPARC T2 model, optionally with one of the
// catalog bugs injected:
//
//	t2regress                 # golden design, all five tests
//	t2regress -bug 33         # inject the Mondo-generation bug
//	t2regress -test full_mix  # a single test
//	t2regress -seed 7 -v      # different schedule, per-message mix
//	t2regress -metrics-json m.json  # dump simulator metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/regress"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "t2regress:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// run executes one t2regress invocation against the given argument list,
// writing the report to w. main is a thin exit-code shim around it, so
// tests drive the full CLI in-process with a bytes.Buffer.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("t2regress", flag.ContinueOnError)
	var (
		bugID   = fs.Int("bug", 0, "inject this catalog bug (0 = golden design)")
		name    = fs.String("test", "", "run a single named test")
		seed    = fs.Int64("seed", 1, "simulation seed")
		verbose = fs.Bool("v", false, "print per-message delivery counts")
		dump    = fs.String("dump", "", "write each test's full-width trace file into this directory")
		metrics = fs.String("metrics-json", "", "write the observability snapshot (soc.* simulator metrics) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	var injectors []soc.Injector
	if *bugID != 0 {
		bug, err := opensparc.BugByID(*bugID)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "injected: %s\n\n", bug)
		injectors = append(injectors, bug)
	}

	var reports []*regress.Report
	if *name != "" {
		t, err := regress.TestByName(*name)
		if err != nil {
			return err
		}
		rep, err := regress.Run(t, *seed, injectors...)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	} else {
		var err error
		reports, err = regress.RunSuite(*seed, injectors...)
		if err != nil {
			return err
		}
	}

	if *dump != "" {
		tests := regress.Suite()
		if *name != "" {
			t, err := regress.TestByName(*name)
			if err != nil {
				return err
			}
			tests = []regress.Test{t}
		}
		for _, t := range tests {
			if err := dumpTrace(t, *seed, *dump, injectors); err != nil {
				return err
			}
		}
	}

	failures := 0
	for _, r := range reports {
		status := "PASS"
		if !r.Passed {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "%-14s %s  %5d events  %7d cycles  %d/%d instances\n",
			r.Test, status, r.Events, r.EndCycle, r.Completed, r.Launched)
		for _, v := range r.Violations {
			fmt.Fprintf(w, "    ! %s\n", v)
		}
		if *verbose {
			names := make([]string, 0, len(r.MessageMix))
			for m := range r.MessageMix {
				names = append(names, m)
			}
			sort.Strings(names)
			for _, m := range names {
				fmt.Fprintf(w, "    %-14s %d\n", m, r.MessageMix[m])
			}
		}
	}
	if *metrics != "" {
		// Write the snapshot before reporting failure: a failing regression
		// run's simulator metrics are exactly the interesting ones.
		if err := obs.Default.WriteFile(*metrics); err != nil {
			return err
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "\n%d of %d tests failed\n", failures, len(reports))
		return fmt.Errorf("%d of %d tests failed", failures, len(reports))
	}
	fmt.Fprintf(w, "\nall %d tests passed\n", len(reports))
	return nil
}

// dumpTrace reruns a regression test and writes every delivered message at
// full width to <dir>/<test>.trace — mining-grade traces for tracemine.
func dumpTrace(t regress.Test, seed int64, dir string, injectors []soc.Injector) error {
	catalog := opensparc.Flows()
	var launches []soc.Launch
	names := make([]string, 0, len(t.FlowCounts))
	for n := range t.FlowCounts {
		names = append(names, n)
	}
	sort.Strings(names)
	stride := t.Stride
	if stride == 0 {
		stride = 16
	}
	seen := map[string]bool{}
	var rules []tbuf.Rule
	for fi, n := range names {
		f := catalog[n]
		launches = append(launches, soc.Repeat(f, t.FlowCounts[n], 1, uint64(fi), stride)...)
		for _, m := range f.Messages() {
			if !seen[m.Name] {
				seen[m.Name] = true
				rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
			}
		}
	}
	plan, err := tbuf.NewCapturePlan(rules)
	if err != nil {
		return err
	}
	res, err := soc.Run(soc.Scenario{Name: t.Name, Launches: launches}, soc.Config{Seed: seed, Injectors: injectors, Obs: obs.Default})
	if err != nil {
		return err
	}
	mon := soc.NewMonitor(plan, tbuf.New(plan.TotalBits(), len(res.Events)+1), nil)
	if err := mon.Consume(res.Events); err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(dir, t.Name+".trace"))
	if err != nil {
		return err
	}
	if err := trace.Write(out, mon.Buffer().Entries()); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

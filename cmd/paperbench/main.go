// Command paperbench regenerates every table and figure of the paper's
// evaluation (DAC'18, §4-§5) from the bundled OpenSPARC T2 and USB models
// as sections of one markdown report:
//
//	paperbench -all            # the whole report (internal/exp/testdata/report.golden.md at seed 1)
//	paperbench -table 3        # one table's section (1-7)
//	paperbench -figure 5       # one figure's section (5-7)
//	paperbench -figure 6 -csv  # the figure's full data as CSV
//	paperbench -sweep          # buffer-width sweep at widths 8-64
//	paperbench -crossover      # SRR vs coverage crossover study
//	paperbench -curves         # localization curve, selection baselines, tagging ablation
//	paperbench -depth          # buffer-depth study at depths 4-128
//	paperbench -scaling        # wall-clock selection times (not in the report)
//	paperbench -seed 42        # change the experiment seed
//	paperbench -all -metrics-json m.json  # dump the observability snapshot
//
// Absolute numbers depend on the reconstructed models (see DESIGN.md); the
// qualitative shapes match the paper and are pinned by internal/exp tests.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tracescale/internal/exp"
	"tracescale/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// run executes one paperbench invocation against the given argument list,
// writing all report output to w. main is a thin exit-code shim around it,
// so tests drive the full CLI in-process with a bytes.Buffer.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	var (
		table   = fs.Int("table", 0, "print one table's section (1-7)")
		figure  = fs.Int("figure", 0, "print one figure's section (5-7)")
		all     = fs.Bool("all", false, "print the whole report (other section flags are ignored)")
		seed    = fs.Int64("seed", 1, "experiment seed")
		csv     = fs.Bool("csv", false, "with -figure, print the figure's data as CSV")
		sweep   = fs.Bool("sweep", false, "print the buffer-width sweep at widths 8-64")
		cross   = fs.Bool("crossover", false, "print the SRR-vs-coverage crossover study")
		curves  = fs.Bool("curves", false, "print the localization-narrowing, selection-baseline and tagging-ablation studies")
		scaling = fs.Bool("scaling", false, "time app-level selection vs gate-level SRR selection")
		depth   = fs.Bool("depth", false, "print the buffer-depth (wraparound) study at depths 4-128")
		cacheS  = fs.Bool("cache-stats", false, "print session-cache hit/miss counters after the run")
		metrics = fs.String("metrics-json", "", "write the observability snapshot (soc.*, interleave.*, core.*, pipeline.*) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	s := *seed
	var sections []func() error
	add := func(on bool, section func() error) {
		if on {
			sections = append(sections, section)
		}
	}
	// Table 4 and the crossover print from one exp.Table4 result.
	var res4 *exp.Table4Result
	withTable4 := func(write func(io.Writer, *exp.Table4Result)) func() error {
		return func() error {
			if res4 == nil {
				res, err := exp.Table4(s)
				if err != nil {
					return err
				}
				res4 = res
			}
			write(w, res4)
			return nil
		}
	}
	if *all {
		sections = append(sections, func() error { return exp.RenderMarkdown(w, s) })
	} else {
		add(*sweep, func() error { return exp.MarkdownWidthSweep(w, []int{8, 16, 24, 32, 48, 64}) })
		add(*cross, withTable4(exp.MarkdownSRRCrossover))
		add(*curves, func() error { return exp.MarkdownLocalizationCurve(w, s) })
		add(*curves, func() error { return exp.MarkdownSelectionBaselines(w, s) })
		add(*curves, func() error { return exp.MarkdownTaggingAblation(w, s) })
		add(*scaling, func() error { return exp.MarkdownScaling(w, s) })
		add(*depth, func() error { return exp.MarkdownDepthStudy(w, []int{4, 8, 16, 32, 64, 128}, s) })
		add(*table == 1, func() error { return exp.MarkdownTable1(w) })
		add(*table == 2, func() error { exp.MarkdownTable2(w); return nil })
		add(*table == 3, func() error { return exp.MarkdownTable3(w, s) })
		add(*table == 4, withTable4(exp.MarkdownTable4))
		add(*table == 5, func() error { return exp.MarkdownTable5(w, s) })
		add(*table == 6, func() error { return exp.MarkdownTable6(w, s) })
		add(*table == 7, func() error { return exp.MarkdownTable7(w) })
		add(*figure == 5 && !*csv, func() error { return exp.MarkdownFig5(w) })
		add(*figure == 5 && *csv, func() error { return exp.RenderCSVFig5(w) })
		add(*figure == 6 && !*csv, func() error { return exp.MarkdownFig6(w, s) })
		add(*figure == 6 && *csv, func() error { return exp.RenderCSVFig6(w, s) })
		add(*figure == 7 && !*csv, func() error { return exp.MarkdownFig7(w, s) })
		add(*figure == 7 && *csv, func() error { return exp.RenderCSVFig7(w, s) })
	}
	if len(sections) == 0 {
		fs.Usage()
		return errUsage
	}
	for _, section := range sections {
		if err := section(); err != nil {
			return err
		}
	}

	if *cacheS {
		// The Session cache is shared by every experiment and records into
		// obs.Default; the counters show how many analyses the pipeline
		// layer saved this run.
		snap := obs.Default.Snapshot()
		fmt.Fprintf(w, "session cache: %d hits, %d misses\n", snap["pipeline.cache.hits"], snap["pipeline.cache.misses"])
	}
	if *metrics != "" {
		return writeMetrics(*metrics, *seed)
	}
	return nil
}

// writeMetrics dumps the default registry's snapshot to path. Analytic
// renders (Figure 5, Tables 1-2) never touch the simulator; replay the
// scenario workloads first so the snapshot always carries soc.* traffic.
func writeMetrics(path string, seed int64) error {
	if snap := obs.Default.Snapshot(); snap["soc.runs"] == 0 {
		if err := exp.SimulateWorkloads(seed); err != nil {
			return err
		}
	}
	return obs.Default.WriteFile(path)
}

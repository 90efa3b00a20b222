// Command paperbench regenerates every table and figure of the paper's
// evaluation (DAC'18, §4-§5) from the bundled OpenSPARC T2 and USB models:
//
//	paperbench -all            # everything, terminal format
//	paperbench -table 3        # one table (1-7)
//	paperbench -figure 5       # one figure (5-7)
//	paperbench -figure 6 -csv  # figure data as CSV
//	paperbench -markdown       # the full evaluation as a markdown report
//	paperbench -sweep          # buffer-width design-space sweep
//	paperbench -crossover      # SRR vs coverage crossover study
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
		table    = fs.Int("table", 0, "render one table (1-7)")
		figure   = fs.Int("figure", 0, "render one figure (5-7)")
		all      = fs.Bool("all", false, "render every table and figure")
		seed     = fs.Int64("seed", 1, "experiment seed")
		csv      = fs.Bool("csv", false, "emit figure data as CSV (figures 5-7 only)")
		markdown = fs.Bool("markdown", false, "emit the full evaluation as markdown")
		sweep    = fs.Bool("sweep", false, "run the buffer-width sweep study")
		cross    = fs.Bool("crossover", false, "run the SRR-vs-coverage crossover study")
		curves   = fs.Bool("curves", false, "run the localization-narrowing and selection-baseline studies")
		scaling  = fs.Bool("scaling", false, "time app-level selection vs gate-level SRR selection")
		depth    = fs.Bool("depth", false, "run the buffer-depth (wraparound) study")
		cacheS   = fs.Bool("cache-stats", false, "print session-cache hit/miss counters after the run")
		metrics  = fs.String("metrics-json", "", "write the observability snapshot (soc.*, interleave.*, core.*, pipeline.*) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	any := false
	step := func(err error) error {
		any = true
		return err
	}

	switch {
	case *markdown:
		if err := exp.RenderMarkdown(w, *seed); err != nil {
			return err
		}
		any = true
	default:
		if *sweep {
			if err := step(exp.RenderWidthSweep(w, []int{8, 16, 24, 32, 48, 64})); err != nil {
				return err
			}
		}
		if *cross {
			if err := step(exp.RenderSRRCrossover(w, *seed)); err != nil {
				return err
			}
		}
		if *curves {
			if err := step(exp.RenderLocalizationCurve(w, *seed)); err != nil {
				return err
			}
			if err := step(exp.RenderSelectionBaselines(w, *seed)); err != nil {
				return err
			}
			if err := step(exp.RenderTaggingAblation(w, *seed)); err != nil {
				return err
			}
		}
		if *scaling {
			if err := step(exp.RenderScaling(w, *seed)); err != nil {
				return err
			}
		}
		if *depth {
			if err := step(exp.RenderDepthStudy(w, *seed)); err != nil {
				return err
			}
		}
		want := func(t int) bool { return *all || *table == t }
		wantFig := func(g int) bool { return *all || *figure == g }
		if want(1) {
			if err := step(exp.RenderTable1(w)); err != nil {
				return err
			}
		}
		if want(2) {
			any = true
			exp.RenderTable2(w)
		}
		if want(3) {
			if err := step(exp.RenderTable3(w, *seed)); err != nil {
				return err
			}
		}
		if want(4) {
			if err := step(exp.RenderTable4(w, *seed)); err != nil {
				return err
			}
		}
		if want(5) {
			if err := step(exp.RenderTable5(w, *seed)); err != nil {
				return err
			}
		}
		if want(6) {
			if err := step(exp.RenderTable6(w, *seed)); err != nil {
				return err
			}
		}
		if want(7) {
			if err := step(exp.RenderTable7(w, 1)); err != nil {
				return err
			}
		}
		if wantFig(5) {
			var err error
			if *csv {
				err = exp.RenderCSVFig5(w)
			} else {
				err = exp.RenderFig5(w)
			}
			if err := step(err); err != nil {
				return err
			}
		}
		if wantFig(6) {
			var err error
			if *csv {
				err = exp.RenderCSVFig6(w, *seed)
			} else {
				err = exp.RenderFig6(w, *seed)
			}
			if err := step(err); err != nil {
				return err
			}
		}
		if wantFig(7) {
			var err error
			if *csv {
				err = exp.RenderCSVFig7(w, *seed)
			} else {
				err = exp.RenderFig7(w, *seed)
			}
			if err := step(err); err != nil {
				return err
			}
		}
	}
	if !any {
		fs.Usage()
		return errUsage
	}

	if *cacheS {
		// The Session cache is shared by every experiment; the counters show
		// how many re-interleavings the pipeline layer saved this run.
		hits, misses := exp.CacheStats()
		fmt.Fprintf(w, "session cache: %d hits, %d misses\n", hits, misses)
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

// Command t2debug runs one of the five OpenSPARC T2 buggy-design case
// studies end to end and narrates the debugging session the way the
// paper's §5.7 does: select trace messages for the usage scenario,
// simulate the golden and buggy designs, observe the failure through the
// trace buffer, then investigate traced messages one at a time, pruning
// candidate IP pairs and architecture-level root causes.
//
//	t2debug -case 1          # Mondo interrupt never generated by DMU
//	t2debug -case 3 -seed 7  # malformed CPU request, different schedule
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tracescale/internal/debugger"
	"tracescale/internal/exp"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "t2debug:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = errors.New("usage")

// run executes one t2debug invocation against the given argument list,
// writing all output to w. main is a thin exit-code shim around it, so
// tests drive the full CLI in-process with a bytes.Buffer.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("t2debug", flag.ContinueOnError)
	var (
		caseID = fs.Int("case", 1, "case study (1-5)")
		seed   = fs.Int64("seed", 1, "simulation seed")
		dump   = fs.String("dump", "", "write golden/buggy trace files into this directory")
		prose  = fs.Bool("narrate", false, "render the session as §5.7-style prose")
		tl     = fs.Bool("timeline", false, "render the buggy run's event timeline")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return errUsage
	}

	cs, err := opensparc.CaseStudyByID(*caseID)
	if err != nil {
		return err
	}
	bug := cs.Bug()
	fmt.Fprintf(w, "=== Case study %d: %s on %s ===\n", cs.ID, cs.Scenario.Name, "OpenSPARC T2")
	fmt.Fprintf(w, "injected: %s\n\n", bug)

	cr, err := exp.RunCase(cs, *seed)
	if err != nil {
		return err
	}

	sel := cr.Selection
	fmt.Fprintf(w, "selected trace messages (%d/%d bits):\n  %s\n",
		sel.WP.Width, exp.BufferWidth, strings.Join(sel.WP.TracedNames(), ", "))
	fmt.Fprintf(w, "flow-spec coverage %.2f%%, buffer utilization %.2f%%\n\n",
		100*sel.WP.Coverage, 100*sel.WP.Utilization)

	fmt.Fprintf(w, "golden run: %d events, passed=%v\n", len(cr.Golden.Events), cr.Golden.Passed())
	fmt.Fprintf(w, "buggy run:  %d events, %d symptom(s); first: %s\n\n",
		len(cr.Buggy.Events), len(cr.Buggy.Symptoms), cr.Buggy.Symptoms[0])

	fmt.Fprintln(w, "observed traced-message statuses (failing instance / whole run):")
	for _, name := range sel.WP.TracedNames() {
		fmt.Fprintf(w, "  %-14s %-8s / %s\n", name, cr.Obs.Focused[name], cr.Obs.Global[name])
	}

	fmt.Fprintln(w, "\ndebugging session:")
	for i, step := range cr.Report.Steps {
		verdict := "consistent"
		if len(step.Eliminated) > 0 {
			ids := make([]string, len(step.Eliminated))
			for j, id := range step.Eliminated {
				ids[j] = fmt.Sprint(id)
			}
			verdict = "eliminates causes " + strings.Join(ids, ",")
		} else if step.Exonerated {
			verdict = fmt.Sprintf("exonerates IP pair %s->%s", step.Src, step.Dst)
		}
		fmt.Fprintf(w, "  %2d. investigate %-14s (%s): %s — %d causes, %d IP pairs remain\n",
			i+1, step.Msg, step.Focused, verdict,
			cr.Report.CauseCurve[i], cr.Report.PairCurve[i])
	}

	fmt.Fprintf(w, "\npath localization: %.4f%% of %s interleaved-flow executions remain candidates\n",
		100*cr.LocWP, sel.Evaluator.Product().TotalPaths())
	fmt.Fprintf(w, "root-cause pruning: %d of %d pruned (%.2f%%)\n",
		cr.Report.TotalCauses-len(cr.Report.Plausible), cr.Report.TotalCauses,
		100*cr.Report.PrunedFraction)
	fmt.Fprintln(w, "\nplausible root cause(s):")
	for _, c := range cr.Report.Plausible {
		marker := " "
		if c.ID == cs.GroundTruth {
			marker = "*" // the injected ground truth
		}
		fmt.Fprintf(w, "  %s [%s] %s\n      -> %s\n", marker, c.IP, c.Function, c.Implication)
	}
	fmt.Fprintln(w, "\n(* = the injected bug's ground-truth cause)")

	if *tl {
		fmt.Fprintln(w)
		if err := soc.WriteTimeline(w, cr.Buggy, 100); err != nil {
			return err
		}
	}

	if *prose {
		fmt.Fprintln(w, "\nnarrative:")
		for _, line := range debugger.Narrate(cr.Obs, cr.Report) {
			fmt.Fprintln(w, "  "+line)
		}
	}

	if *dump != "" {
		golden, buggy, err := exp.TraceFiles(cr)
		if err != nil {
			return err
		}
		if err := writeTrace(filepath.Join(*dump, fmt.Sprintf("case%d_golden.trace", cs.ID)), golden); err != nil {
			return err
		}
		if err := writeTrace(filepath.Join(*dump, fmt.Sprintf("case%d_buggy.trace", cs.ID)), buggy); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntrace files written to %s (%d golden, %d buggy entries)\n",
			*dump, len(golden), len(buggy))
	}
	return nil
}

// writeTrace writes entries to path in the trace-file format.
func writeTrace(path string, entries []tbuf.Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

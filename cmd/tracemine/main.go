// Command tracemine bootstraps flow collateral from traces. Given a trace
// corpus — directed tests that exercise one protocol, or interleaved
// multi-flow runs — it infers the flow set, censoring shared and rare
// messages and pruning interleaving artifacts against trace consistency,
// and can emit a scenario spec that cmd/tracesel and the mined-vs-truth
// campaign run selection on — closing the loop from silicon observation
// back to the flow specifications the method needs.
//
//	tracemine pio.trace                          # mined flow summary
//	tracemine run1.trace run2.trace              # mine a multi-file corpus
//	tracemine traces/                            # every *.trace in a directory
//	tracemine -spec -name PIOR pio.trace         # scenario spec (JSON) on stdout
//	tracemine -spec -instances 2 pio.trace       # two legally indexed instances
//	tracemine -min-support 3 -spec -name t2mix traces/
//
// A message is mined only if it occurs in -min-support transaction slices
// (default 2), so a corpus holding a single transaction needs
// -min-support 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracescale/internal/mine"
	"tracescale/internal/spec"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "tracemine:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// run executes one tracemine invocation against the given argument list,
// writing all output to w. main is a thin exit-code shim around it, so
// tests drive the full CLI in-process with a bytes.Buffer.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracemine", flag.ContinueOnError)
	var (
		emitSpec   = fs.Bool("spec", false, "emit a scenario spec (JSON) instead of a summary")
		name       = fs.String("name", "mined", "flow name for the emitted spec")
		instances  = fs.Int("instances", 1, "indexed instances per flow in the emitted scenario")
		width      = fs.Int("width", 32, "trace buffer width in the emitted spec")
		minSupport = fs.Int("min-support", 0, "slices a message must occur in to be mined (default 2)")
		confidence = fs.Float64("min-confidence", 0, "fraction of pair co-occurrences that must agree on one order (default 1)")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	paths, err := expandArgs(fs.Args())
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		fs.Usage()
		return errUsage
	}
	traces := make([][]tbuf.Entry, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		entries, err := trace.Parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		traces[i] = entries
	}

	res, err := mine.Corpus(traces, mine.Options{MinSupport: *minSupport, MinConfidence: *confidence})
	if err != nil {
		return err
	}
	if !*emitSpec {
		renderCorpus(w, res)
		return nil
	}
	s, err := res.Scenario(*name, *instances, *width)
	if err != nil {
		return err
	}
	return spec.Write(w, s)
}

// renderCorpus prints the corpus mining summary: the accepted flow set,
// the censored messages, and the repair count.
func renderCorpus(w io.Writer, res *mine.Result) {
	fmt.Fprintf(w, "mined %d flows from %d transaction slices across %d traces", len(res.Flows), res.Slices, res.Traces)
	if res.Truncated > 0 {
		fmt.Fprintf(w, " (%d slices truncated)", res.Truncated)
	}
	fmt.Fprintln(w, ":")
	for fi, m := range res.Flows {
		fmt.Fprintf(w, "flow %d (%d complete, %d truncated):\n", fi, m.Tags, m.Skipped)
		for i, o := range m.Order {
			fmt.Fprintf(w, "  %2d. %-16s %2d bits (%d occurrences)\n", i+1, o.Name, o.Width, o.Count)
		}
	}
	if len(res.Shared) > 0 {
		fmt.Fprintf(w, "shared (unattributable, censored): %s\n", strings.Join(res.Shared, ", "))
	}
	if len(res.LowSupport) > 0 {
		fmt.Fprintf(w, "below support (censored): %s\n", strings.Join(res.LowSupport, ", "))
	}
	if res.Splits > 0 {
		fmt.Fprintf(w, "consistency repairs: %d candidate splits\n", res.Splits)
	}
}

// expandArgs resolves the positional arguments: files pass through,
// directories expand to their *.trace files sorted by name so corpus runs
// are reproducible regardless of filesystem order.
func expandArgs(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			out = append(out, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "*.trace"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no *.trace files", a)
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	return out, nil
}

// Command tracetool works with trace files (the monitor format,
// "@cycle index:message bits"):
//
//	tracetool -stats buggy.trace             # volume, span, per-message counts
//	tracetool -project 3 buggy.trace         # one tag's message sequence
//	tracetool -diff golden.trace buggy.trace # per-message status classification
//	tracetool -diff ... -focus 5             # focus the diff on one tag
//
// The diff is the first step of the paper's debugging procedure: classify
// every traced message of the failing run against the golden reference
// (missing / reduced / corrupt / normal) before investigating.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"tracescale/internal/debugger"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = errors.New("usage")

// run executes one tracetool invocation against the given argument list,
// writing all output to w. main is a thin exit-code shim around it, so
// tests drive the full CLI in-process with a bytes.Buffer.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracetool", flag.ContinueOnError)
	var (
		stats   = fs.Bool("stats", false, "print trace statistics")
		project = fs.Int("project", -1, "print the message sequence of this tag")
		diff    = fs.Bool("diff", false, "classify <golden> vs <buggy>")
		focus   = fs.Int("focus", -1, "tag to focus the diff on (-1 = first divergence)")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	args = fs.Args()

	switch {
	case *stats && len(args) == 1:
		entries, err := parse(args[0])
		if err != nil {
			return err
		}
		s := trace.Summarize(entries)
		fmt.Fprintf(w, "%s: %d entries over cycles [%d, %d] (span %d)\n",
			args[0], s.Entries, s.FirstCycle, s.LastCycle, s.Span())
		for _, name := range s.Names() {
			fmt.Fprintf(w, "  %-16s %d\n", name, s.PerMessage[name])
		}
	case *project >= 0 && len(args) == 1:
		entries, err := parse(args[0])
		if err != nil {
			return err
		}
		msgs := trace.Project(entries, *project)
		if len(msgs) == 0 {
			fmt.Fprintf(w, "tag %d: no entries\n", *project)
			return nil
		}
		fmt.Fprintf(w, "tag %d (%d entries):\n", *project, len(msgs))
		for _, m := range msgs {
			fmt.Fprintf(w, "  %s\n", m)
		}
	case *diff && len(args) == 2:
		golden, err := parse(args[0])
		if err != nil {
			return err
		}
		buggy, err := parse(args[1])
		if err != nil {
			return err
		}
		traced := map[string]bool{}
		for _, e := range golden {
			traced[e.Msg.Name] = true
		}
		for _, e := range buggy {
			traced[e.Msg.Name] = true
		}
		f := *focus
		if f < 0 {
			f = firstDivergentTag(golden, buggy)
		}
		obs := debugger.ObserveEntries(golden, buggy, traced, f)
		names := make([]string, 0, len(traced))
		for n := range traced {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "focused on tag %d (message: whole run / focused tag)\n", f)
		affected := 0
		for _, n := range names {
			marker := " "
			if obs.Global[n] != debugger.Normal || obs.Focused[n] != debugger.Normal {
				marker = "!"
				affected++
			}
			fmt.Fprintf(w, "%s %-16s %-8s / %-8s (%d entries)\n",
				marker, n, obs.Global[n], obs.Focused[n], obs.Entries[n])
		}
		fmt.Fprintf(w, "%d of %d messages affected\n", affected, len(names))
	default:
		fs.Usage()
		return errUsage
	}
	return nil
}

// firstDivergentTag finds the lowest tag whose entry count differs between
// the two traces — a cheap symptom locator when none is supplied.
func firstDivergentTag(golden, buggy []tbuf.Entry) int {
	count := func(es []tbuf.Entry) map[int]int {
		m := map[int]int{}
		for _, e := range es {
			m[e.Msg.Index]++
		}
		return m
	}
	g, b := count(golden), count(buggy)
	tags := map[int]bool{}
	for t := range g {
		tags[t] = true
	}
	for t := range b {
		tags[t] = true
	}
	ordered := make([]int, 0, len(tags))
	for t := range tags {
		ordered = append(ordered, t)
	}
	sort.Ints(ordered)
	for _, t := range ordered {
		if g[t] != b[t] {
			return t
		}
	}
	if len(ordered) > 0 {
		return ordered[0]
	}
	return -1
}

// parse reads one trace file, naming the file in a parse error.
func parse(path string) ([]tbuf.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := trace.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

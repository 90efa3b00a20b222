// Command tracelint machine-checks the repo's invariants with the
// internal/analysis suite:
//
//	tracelint ./...                  # lint the whole module
//	tracelint -json ./... > lint.json
//	tracelint -analyzers clockrand,detrange ./internal/core
//	tracelint -C /path/to/module ./...
//	tracelint -baseline lint_baseline.json ./...
//	tracelint -write-baseline lint_baseline.json ./...
//
// Diagnostics are printed one per line as file:line:col: [analyzer]
// message (or as a JSON array with -json). The exit code is 0 when clean,
// 1 on findings or errors, 2 on bad usage; stderr carries a one-line
// per-analyzer summary when the gate trips, so CI logs stay readable.
//
// -baseline turns the run into a one-way ratchet against a committed
// baseline: findings not in the baseline fail the run, and so do baseline
// entries that no longer fire (paid-down debt must be banked by shrinking
// the file). -write-baseline records the current findings as the new
// baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tracescale/internal/analysis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "tracelint:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// run executes one tracelint invocation against the given argument list,
// writing diagnostics to w. main is a thin exit-code shim around it, so
// tests drive the full CLI in-process with a bytes.Buffer. It returns a
// non-nil error when there are findings — the summary line — so main
// exits non-zero exactly when the tree is dirty.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracelint", flag.ContinueOnError)
	var (
		jsonOut   = fs.Bool("json", false, "emit diagnostics as a JSON array (stable schema: file, line, col, analyzer, message)")
		dir       = fs.String("C", ".", "run in this directory (the module root to lint)")
		names     = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = fs.Bool("list", false, "list available analyzers and exit")
		baseline  = fs.String("baseline", "", "ratchet against this baseline file: fail on findings not in it and on stale entries")
		writeBase = fs.String("write-baseline", "", "write the current findings to this baseline file and exit clean")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *baseline != "" && *writeBase != "" {
		fmt.Fprintln(os.Stderr, "tracelint: -baseline and -write-baseline are mutually exclusive")
		return errUsage
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(w, "%-10s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	if *names != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*names, ","))
		if err != nil {
			return err
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analysis.Run(*dir, patterns, analyzers)
	if err != nil {
		return err
	}
	// Baseline keys are module-root-relative, so resolve the lint root once.
	root, err := filepath.Abs(*dir)
	if err != nil {
		return err
	}

	if *writeBase != "" {
		b := analysis.NewBaseline(diags, root)
		if err := b.Write(*writeBase); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d baseline entries to %s\n", len(b.Entries), *writeBase)
		return nil
	}

	if *baseline != "" {
		b, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			return err
		}
		fresh, stale := analysis.DiffBaseline(b, diags, root)
		if err := emit(w, fresh, *jsonOut); err != nil {
			return err
		}
		if !*jsonOut { // keep -json stdout a pure diagnostics array
			for _, e := range stale {
				fmt.Fprintf(w, "stale baseline entry: %s [%s] %s (x%d)\n", e.File, e.Analyzer, e.Message, e.Count)
			}
		}
		var parts []string
		if len(fresh) > 0 {
			parts = append(parts, fmt.Sprintf("%s not in baseline", analysis.Summary(fresh)))
		}
		if len(stale) > 0 {
			parts = append(parts, fmt.Sprintf("%d stale baseline entries (debt paid down — regenerate with -write-baseline to bank it)", len(stale)))
		}
		if len(parts) > 0 {
			return fmt.Errorf("%s", strings.Join(parts, "; "))
		}
		return nil
	}

	if err := emit(w, diags, *jsonOut); err != nil {
		return err
	}
	if len(diags) > 0 {
		return fmt.Errorf("%s", analysis.Summary(diags))
	}
	return nil
}

// emit renders diagnostics to w in the selected format.
func emit(w io.Writer, diags []analysis.Diagnostic, jsonOut bool) error {
	if jsonOut {
		return analysis.WriteJSON(w, diags)
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return nil
}

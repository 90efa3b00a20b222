package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirtyModule writes a throwaway module whose core package reads the wall
// clock, so clockrand fires exactly once.
func dirtyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("core/core.go", `package core

import "time"

// Stamp reads the wall clock in a deterministic package.
func Stamp() int64 {
	return time.Now().UnixNano()
}
`)
	return dir
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nilsafe", "detrange", "clockrand", "obsdrop"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, buf.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err != errUsage {
		t.Fatalf("err = %v, want errUsage", err)
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	err := run([]string{"-analyzers", "nope", "./..."}, io.Discard)
	if err == nil || err == errUsage || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-analyzer error naming nope", err)
	}
}

func TestRunCleanPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-C", "../..", "./internal/obs"}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", buf.String())
	}
}

func TestRunFindingsText(t *testing.T) {
	dir := dirtyModule(t)
	var buf bytes.Buffer
	err := run([]string{"-C", dir, "./..."}, &buf)
	if err == nil {
		t.Fatal("expected a findings error")
	}
	if got, want := err.Error(), "1 finding (clockrand=1)"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
	out := buf.String()
	if !strings.Contains(out, "[clockrand]") || !strings.Contains(out, "core.go:7:") {
		t.Errorf("text output missing the diagnostic:\n%s", out)
	}
}

func TestRunFindingsJSON(t *testing.T) {
	dir := dirtyModule(t)
	var buf bytes.Buffer
	err := run([]string{"-C", dir, "-json", "./..."}, &buf)
	if err == nil {
		t.Fatal("expected a findings error even with -json")
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if jsonErr := json.Unmarshal(buf.Bytes(), &diags); jsonErr != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", jsonErr, buf.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %s", len(diags), buf.String())
	}
	d := diags[0]
	if d.Analyzer != "clockrand" || d.Line != 7 || !strings.HasSuffix(d.File, "core.go") ||
		!strings.Contains(d.Message, "time.Now") {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestRunAnalyzerSubset(t *testing.T) {
	dir := dirtyModule(t)
	var buf bytes.Buffer
	// obsdrop alone must not see the clockrand violation.
	if err := run([]string{"-C", dir, "-analyzers", "obsdrop", "./..."}, &buf); err != nil {
		t.Fatalf("err = %v, want clean run under the obsdrop subset", err)
	}
	if buf.Len() != 0 {
		t.Errorf("subset run produced output:\n%s", buf.String())
	}
}

// TestRunBaselineRatchet drives the full ratchet lifecycle through the CLI:
// bank the existing debt with -write-baseline, pass against it, fail on a
// fresh finding, and fail on a stale entry once the debt is paid down.
func TestRunBaselineRatchet(t *testing.T) {
	dir := dirtyModule(t)
	base := filepath.Join(dir, "lint_baseline.json")

	// Bank the existing clockrand finding.
	var buf bytes.Buffer
	if err := run([]string{"-C", dir, "-write-baseline", base, "./..."}, &buf); err != nil {
		t.Fatalf("-write-baseline failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "wrote 1 baseline entries") {
		t.Errorf("write output = %q, want the entry count", buf.String())
	}

	// The banked finding now passes the ratchet, silently.
	buf.Reset()
	if err := run([]string{"-C", dir, "-baseline", base, "./..."}, &buf); err != nil {
		t.Fatalf("baselined run failed: %v\n%s", err, buf.String())
	}
	if buf.Len() != 0 {
		t.Errorf("baselined run produced output:\n%s", buf.String())
	}

	// A second violation in another package is fresh: only it is emitted.
	if err := os.MkdirAll(filepath.Join(dir, "soc"), 0o755); err != nil {
		t.Fatal(err)
	}
	socFile := filepath.Join(dir, "soc", "soc.go")
	if err := os.WriteFile(socFile, []byte("package soc\n\nimport \"time\"\n\nfunc Tick() int64 { return time.Now().Unix() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err := run([]string{"-C", dir, "-baseline", base, "./..."}, &buf)
	if err == nil || !strings.Contains(err.Error(), "not in baseline") {
		t.Fatalf("err = %v, want a not-in-baseline error", err)
	}
	out := buf.String()
	if !strings.Contains(out, "soc.go") || strings.Contains(out, "core.go") {
		t.Errorf("fresh-finding output should show only soc.go:\n%s", out)
	}

	// Remove both violations: the banked entry is now stale and must fail
	// until the baseline is regenerated.
	if err := os.Remove(socFile); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "core", "core.go"), []byte("package core\n\nfunc Stamp() int64 { return 0 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = run([]string{"-C", dir, "-baseline", base, "./..."}, &buf)
	if err == nil || !strings.Contains(err.Error(), "stale baseline entries") {
		t.Fatalf("err = %v, want a stale-baseline error", err)
	}
	if !strings.Contains(buf.String(), "stale baseline entry: core/core.go [clockrand]") {
		t.Errorf("stale output missing the entry detail:\n%s", buf.String())
	}

	// Regenerating banks the paydown and the ratchet passes again.
	buf.Reset()
	if err := run([]string{"-C", dir, "-write-baseline", base, "./..."}, &buf); err != nil {
		t.Fatalf("regenerate failed: %v", err)
	}
	if !strings.Contains(buf.String(), "wrote 0 baseline entries") {
		t.Errorf("regenerate output = %q, want zero entries", buf.String())
	}
	if err := run([]string{"-C", dir, "-baseline", base, "./..."}, io.Discard); err != nil {
		t.Errorf("clean tree against empty baseline failed: %v", err)
	}
}

// TestRunBaselineJSONStaysPure pins that -json emits only the diagnostics
// array on stdout even when the baseline run fails: stale detail rides in
// the error, not the stream.
func TestRunBaselineJSONStaysPure(t *testing.T) {
	dir := dirtyModule(t)
	base := filepath.Join(dir, "lint_baseline.json")
	if err := run([]string{"-C", dir, "-write-baseline", base, "./..."}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Pay the debt down so the run fails with a stale entry.
	if err := os.WriteFile(filepath.Join(dir, "core", "core.go"), []byte("package core\n\nfunc Stamp() int64 { return 0 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-C", dir, "-json", "-baseline", base, "./..."}, &buf)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("err = %v, want a stale-baseline error", err)
	}
	var diags []json.RawMessage
	if jsonErr := json.Unmarshal(buf.Bytes(), &diags); jsonErr != nil {
		t.Fatalf("-json stdout is not a pure JSON array: %v\n%s", jsonErr, buf.String())
	}
	if len(diags) != 0 {
		t.Errorf("got %d fresh diagnostics, want 0: %s", len(diags), buf.String())
	}
}

func TestRunBaselineFlagsExclusive(t *testing.T) {
	if err := run([]string{"-baseline", "a.json", "-write-baseline", "b.json", "./..."}, io.Discard); err != errUsage {
		t.Fatalf("err = %v, want errUsage for -baseline with -write-baseline", err)
	}
}

func TestRunBaselineMissingFile(t *testing.T) {
	dir := dirtyModule(t)
	err := run([]string{"-C", dir, "-baseline", filepath.Join(dir, "nope.json"), "./..."}, io.Discard)
	if err == nil || err == errUsage {
		t.Fatalf("err = %v, want a load error for a missing baseline", err)
	}
}

package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// multiPkgModule writes a throwaway module with findings spread across
// four packages, so one run merges facts across package boundaries: soc
// (clockrand), flow (detrange), campaign (clockrand + detrange), and core
// (clockrand + a detflow-tainted marshal).
func multiPkgModule(t *testing.T) string {
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
	write("soc/soc.go", `package soc

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	write("flow/flow.go", `package flow

func Total(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum
}
`)
	write("campaign/campaign.go", `package campaign

import "math/rand"

func Pick(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	_ = rand.Intn(3)
	return keys
}
`)
	write("core/core.go", `package core

import (
	"encoding/json"
	"time"
)

func stamp() int64 { return time.Now().UnixNano() }

func Export(v []int) ([]byte, error) {
	_ = stamp()
	return json.Marshal(v)
}
`)
	return dir
}

// TestRunMultiPackage runs the whole pipeline over a four-package module:
// every finding surfaces once, and the interprocedural detflow finding
// crosses the Export -> stamp call boundary.
func TestRunMultiPackage(t *testing.T) {
	dir := multiPkgModule(t)
	diags, err := Run(dir, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	if len(diags) != 6 {
		t.Fatalf("got %d findings, want 6:\n%s", len(diags), sb.String())
	}
	var sawDetflow bool
	for _, d := range diags {
		if d.Analyzer == "detflow" && strings.Contains(d.Message, "via Export -> stamp") {
			sawDetflow = true
		}
	}
	if !sawDetflow {
		t.Errorf("missing the interprocedural detflow finding:\n%s", sb.String())
	}
}

// TestRunFirstErrorInListOrder pins error selection: with two packages
// that fail to typecheck, Run reports the first in go-list order.
func TestRunFirstErrorInListOrder(t *testing.T) {
	dir := multiPkgModule(t)
	for _, pkg := range []string{"bad", "worse"} {
		if err := os.MkdirAll(filepath.Join(dir, pkg), 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, pkg, pkg+".go"), "package "+pkg+"\n\nfunc Broken() { return undefinedSymbol }\n")
	}
	_, err := Run(dir, []string{"./..."}, All())
	if err == nil {
		t.Fatal("expected a typecheck error")
	}
	if msg := err.Error(); !strings.Contains(msg, "/bad:") || strings.Contains(msg, "worse") {
		t.Errorf("error %q does not name the first broken package, bad", err)
	}
}

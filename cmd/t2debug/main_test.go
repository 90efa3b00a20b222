package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescale/internal/trace"
)

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRun compares whole outputs against goldens: the debugger's session
// for each case study depends on every layer under it (selection, the
// simulator's event stream, observation, elimination, localization).
func TestRun(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		golden  string // testdata file holding the whole output
		wantErr string // substring of the error
	}{
		{name: "case 1", args: []string{"-case", "1"}, golden: "case1.golden"},
		{name: "case 2", args: []string{"-case", "2"}, golden: "case2.golden"},
		{name: "case 3", args: []string{"-case", "3"}, golden: "case3.golden"},
		{name: "case 4", args: []string{"-case", "4"}, golden: "case4.golden"},
		{name: "case 5", args: []string{"-case", "5"}, golden: "case5.golden"},
		{
			name:   "timeline and narrative",
			args:   []string{"-case", "1", "-timeline", "-narrate"},
			golden: "case1_timeline_narrate.golden",
		},
		{name: "unknown case", args: []string{"-case", "9"}, wantErr: "no case study 9"},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: "usage"},
		{name: "stray argument", args: []string{"extra"}, wantErr: "usage"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := readGolden(t, tc.golden); buf.String() != want {
				t.Errorf("output differs from testdata/%s:\n got:\n%s\nwant:\n%s", tc.golden, buf.String(), want)
			}
		})
	}
}

// TestRunDump writes the case's golden and buggy trace files and reads
// them back through the trace-file parser.
func TestRunDump(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-case", "2", "-dump", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, kind := range []string{"golden", "buggy"} {
		f, err := os.Open(filepath.Join(dir, "case2_"+kind+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := trace.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s trace: %v", kind, err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s trace is empty", kind)
		}
		counts[kind] = len(entries)
	}
	if counts["buggy"] >= counts["golden"] {
		t.Errorf("buggy trace has %d entries, golden %d: the injected drop should lose some",
			counts["buggy"], counts["golden"])
	}
	want := readGolden(t, "case2.golden") + fmt.Sprintf(
		"\ntrace files written to %s (%d golden, %d buggy entries)\n", dir, counts["golden"], counts["buggy"])
	if buf.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

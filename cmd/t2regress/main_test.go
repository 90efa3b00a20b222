package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescale/internal/regress"
	"tracescale/internal/trace"
)

// TestRunFlagHandling drives the regression CLI in-process through run.
func TestRunFlagHandling(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = success; "usage" = errUsage; else substring
		want    []string
	}{
		{
			name:    "unknown flag prints usage",
			args:    []string{"-bogus"},
			wantErr: "usage",
		},
		{
			name:    "unknown test fails",
			args:    []string{"-test", "no_such_test"},
			wantErr: "no_such_test",
		},
		{
			name:    "unknown bug fails",
			args:    []string{"-bug", "9999"},
			wantErr: "9999",
		},
		{
			name: "single golden test passes",
			args: []string{"-test", "full_mix"},
			want: []string{"full_mix", "PASS", "all 1 tests passed"},
		},
		{
			name: "verbose prints the message mix",
			args: []string{"-test", "full_mix", "-v"},
			want: []string{"full_mix", "PASS"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			switch {
			case tc.wantErr == "":
				if err != nil {
					t.Fatalf("run(%v): %v", tc.args, err)
				}
			case tc.wantErr == "usage":
				if err != errUsage {
					t.Fatalf("run(%v) error = %v, want errUsage", tc.args, err)
				}
			default:
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%v) error = %v, want containing %q", tc.args, err, tc.wantErr)
				}
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output missing %q:\n%s", w, out.String())
				}
			}
		})
	}
}

// TestRunMetricsJSON checks that a regression run dumps simulator metrics.
func TestRunMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	if err := run([]string{"-test", "full_mix", "-metrics-json", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not a JSON object of int64s: %v", err)
	}
	for _, key := range []string{"soc.runs", "soc.cycles", "soc.events.delivered"} {
		if snap[key] == 0 {
			t.Errorf("metric %q is zero or missing", key)
		}
	}
}

// TestRunDump checks -dump: one trace file per regression test, each of
// which parses back.
func TestRunDump(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-dump", dir}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if suite := regress.Suite(); len(files) != len(suite) {
		t.Fatalf("dumped %d files for %d tests: %v", len(files), len(suite), files)
	}
	for _, test := range regress.Suite() {
		f, err := os.Open(filepath.Join(dir, test.Name+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := trace.Parse(f)
		f.Close()
		if err != nil {
			t.Errorf("%s.trace: %v", test.Name, err)
		} else if len(entries) == 0 {
			t.Errorf("%s.trace is empty", test.Name)
		}
	}
}

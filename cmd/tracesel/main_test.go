package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toySpecPath exports the toy cache-coherence spec to a temp file — the
// fixture the selection tests run against, produced by the CLI itself so
// the export and import paths cover each other.
func toySpecPath(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"-export-toy"}, &out); err != nil {
		t.Fatalf("export-toy: %v", err)
	}
	path := filepath.Join(t.TempDir(), "toy.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFlagHandling drives the CLI in-process through run, checking flag
// parsing, spec export, and the end-to-end selection render.
func TestRunFlagHandling(t *testing.T) {
	toy := toySpecPath(t)
	dotDir := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = success; "usage" = errUsage; else substring
		want    []string
		// check, when set, inspects the files the run wrote.
		check func(t *testing.T)
	}{
		{
			name:    "no arguments prints usage",
			args:    nil,
			wantErr: "usage",
		},
		{
			name:    "unknown flag prints usage",
			args:    []string{"-bogus"},
			wantErr: "usage",
		},
		{
			name: "export-toy emits the spec",
			args: []string{"-export-toy"},
			want: []string{`"toy-cache-coherence"`, `"cachecoherence"`},
		},
		{
			name:    "unknown method fails",
			args:    []string{"-spec", toy, "-method", "quantum"},
			wantErr: `unknown method "quantum"`,
		},
		{
			name:    "missing spec file fails",
			args:    []string{"-spec", filepath.Join(t.TempDir(), "absent.json")},
			wantErr: "no such file",
		},
		{
			// The paper's running example: the toy scenario's 2-bit budget
			// selects {ReqE, GntE} (Fig. 2's winning pair).
			name: "toy selection end to end",
			args: []string{"-spec", toy},
			want: []string{
				"scenario: toy-cache-coherence",
				"selected messages (2 bits):",
				"ReqE", "GntE",
				"utilization: 100.00%",
			},
		},
		{
			name: "width override and knapsack method",
			args: []string{"-spec", toy, "-width", "4", "-method", "knapsack", "-no-pack"},
			want: []string{"buffer: 4 bits, method: knapsack"},
		},
		{
			name: "dot-flows writes one file per flow",
			args: []string{"-spec", toy, "-dot-flows", dotDir},
			want: []string{"flow DOT files written to " + dotDir},
			check: func(t *testing.T) {
				out := readFile(t, filepath.Join(dotDir, "cachecoherence.dot"))
				if !strings.Contains(out, `digraph "cachecoherence"`) {
					t.Errorf("flow DOT is not the cachecoherence digraph:\n%s", out)
				}
			},
		},
		{
			// The toy interleaving of two cache-coherence instances has
			// 15 states and 18 edges.
			name: "dot-product writes the interleaving",
			args: []string{"-spec", toy, "-dot-product", filepath.Join(dotDir, "toy.dot")},
			want: []string{"interleaving DOT written to " + filepath.Join(dotDir, "toy.dot")},
			check: func(t *testing.T) {
				states, edges := 0, 0
				for _, line := range strings.Split(readFile(t, filepath.Join(dotDir, "toy.dot")), "\n") {
					switch {
					case strings.Contains(line, " -> "):
						edges++
					case strings.Contains(line, " [label="):
						states++
					}
				}
				if states != 15 || edges != 18 {
					t.Errorf("interleaving DOT has %d state and %d edge lines, want 15 and 18", states, edges)
				}
			},
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
			if tc.check != nil {
				tc.check(t)
			}
		})
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExportSynthSelectsAtScale drives the README's 120-message
// quickstart end to end: -export-synth emits a parseable spec whose
// universe is exactly 120 messages, the exhaustive method refuses it at its
// MaxCandidates guard, and the scalable selectors (branch-bound, greedy)
// select within the 32-bit budget.
func TestExportSynthSelectsAtScale(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-export-synth", "120"}, &out); err != nil {
		t.Fatalf("export-synth: %v", err)
	}
	if !strings.Contains(out.String(), `"synth-120"`) {
		t.Fatalf("exported spec lacks the scenario name:\n%.400s", out.String())
	}
	path := filepath.Join(t.TempDir(), "big.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	err := run([]string{"-spec", path, "-method", "exhaustive"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "exceed MaxCandidates") {
		t.Fatalf("exhaustive on 120 messages: err = %v, want the MaxCandidates refusal", err)
	}

	for _, method := range []string{"branch-bound", "greedy"} {
		var sel bytes.Buffer
		if err := run([]string{"-spec", path, "-method", method}, &sel); err != nil {
			t.Fatalf("%s on 120 messages: %v", method, err)
		}
		for _, w := range []string{"scenario: synth-120", "buffer: 32 bits, method: " + method, "selected messages"} {
			if !strings.Contains(sel.String(), w) {
				t.Errorf("%s output missing %q:\n%s", method, w, sel.String())
			}
		}
	}

	if err := run([]string{"-export-synth", "3", "-synth-flows", "5"}, &bytes.Buffer{}); err == nil {
		t.Error("export-synth with more flows than messages accepted")
	}
}

// TestRunMetricsJSON checks that a selection run dumps a parseable
// observability snapshot covering the analysis chain.
func TestRunMetricsJSON(t *testing.T) {
	toy := toySpecPath(t)
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	if err := run([]string{"-spec", toy, "-metrics-json", path}, &out); err != nil {
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
	for _, key := range []string{"interleave.builds", "core.select.runs", "pipeline.fingerprints"} {
		if snap[key] == 0 {
			t.Errorf("metric %q is zero or missing", key)
		}
	}
}

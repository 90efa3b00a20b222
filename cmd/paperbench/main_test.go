package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagHandling drives the CLI in-process through run, checking the
// argument-handling contract: bad invocations return errUsage (exit 2 in
// main), good ones print the chosen report sections to the writer.
func TestRunFlagHandling(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr error
		want    []string // substrings the output must contain
	}{
		{
			name:    "no arguments prints usage",
			args:    nil,
			wantErr: errUsage,
		},
		{
			name:    "unknown flag prints usage",
			args:    []string{"-bogus"},
			wantErr: errUsage,
		},
		{
			name:    "the removed markdown flag prints usage",
			args:    []string{"-markdown"},
			wantErr: errUsage,
		},
		{
			name:    "a table outside 1-7 prints usage",
			args:    []string{"-table", "9"},
			wantErr: errUsage,
		},
		{
			name: "table 2 renders the bug catalog",
			args: []string{"-table", "2"},
			want: []string{"## Table 2", "wrong command generation"},
		},
		{
			name: "sweep prints every scenario at widths 8 to 64",
			args: []string{"-sweep"},
			want: []string{"## Extension — buffer-width sweep",
				"| 1 | 8 | 2 | 0 | 87.5% |", "| 2 | 24 | 4 | 0 | 100% |", "| 3 | 48 | 5 | 0 | 100% |"},
		},
		{
			name: "depth prints depths 4 to 128",
			args: []string{"-depth"},
			want: []string{"## Extension — buffer-depth study",
				"| 8 | 8 | 3 | true |", "| 32 | 32 | 3 | true |", "| 128 | 48 | 0 | true |"},
		},
		{
			name: "curves print the localization curve and two report studies",
			args: []string{"-curves"},
			want: []string{"## Extension — localization vs observed trace length", "| 1 | 3 | 0.14% |",
				"## Extension — selection baselines", "## Extension — tagging ablation"},
		},
		{
			name: "scaling prints the timing table",
			args: []string{"-scaling"},
			want: []string{"## Extension — app-level vs gate-level SRR selection time",
				"| app-level | Scenario 3 | 12 messages, 216 states | ",
				"| gate-level SRR | generated circuit | 256 flip-flops | "},
		},
		{
			name: "figure 6 as CSV prints every step",
			args: []string{"-figure", "6", "-csv"},
			want: []string{"case,step,message,pairs_left,causes_left\n1,1,reqtot,7,7\n"},
		},
		{
			name: "cache stats are appended after the report",
			args: []string{"-table", "2", "-cache-stats"},
			want: []string{"Table 2", "session cache:"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err != tc.wantErr {
				t.Fatalf("run(%v) error = %v, want %v", tc.args, err, tc.wantErr)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output missing %q:\n%s", w, out.String())
				}
			}
		})
	}
}

// TestRunTable2Golden pins the full Table 2 section: the bug catalog is
// static, so the CLI's end-to-end output is byte-reproducible.
func TestRunTable2Golden(t *testing.T) {
	const golden = `
## Table 2 — representative injected bugs

| Bug | Depth | Category | IP | Type |
|---|---|---|---|---|
| 1 | 4 | Control | DMU | wrong command generation by data misinterpretation |
| 2 | 4 | Data | DMU | data corruption by wrong address generation |
| 3 | 3 | Control | DMU | wrong construction of Unit Control Block resulting in malformed request |
| 4 | 4 | Control | NCU | generating wrong request due to incorrect decoding of request packet from CPU buffer |
`
	var out bytes.Buffer
	if err := run([]string{"-table", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != golden {
		t.Errorf("table 2 output drifted from golden:\n got:\n%s\nwant:\n%s", out.String(), golden)
	}
}

// TestRunMetricsJSON checks the -metrics-json contract: the file exists,
// parses, and carries nonzero metrics from every instrumented layer — for
// an analytic render (figure 5), the soc.* numbers come from the workload
// replay writeMetrics triggers. Figure 5 selects without interleaving, so
// its analysis shows up as core.evaluator.* rather than interleave.*.
func TestRunMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	if err := run([]string{"-figure", "5", "-metrics-json", path}, &out); err != nil {
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
	for _, key := range []string{
		"soc.runs", "soc.cycles", "soc.events.delivered",
		"core.evaluator.builds", "core.evaluator.states",
		"core.select.runs", "core.select.masks_enumerated", "core.select.masks_feasible",
		"pipeline.cache.misses",
	} {
		if snap[key] == 0 {
			t.Errorf("metric %q is zero or missing; snapshot keys: %d", key, len(snap))
		}
	}
	if snap["core.select.masks_feasible"]+snap["core.select.masks_pruned"] != snap["core.select.masks_enumerated"] {
		t.Errorf("feasible (%d) + pruned (%d) != enumerated (%d)",
			snap["core.select.masks_feasible"], snap["core.select.masks_pruned"], snap["core.select.masks_enumerated"])
	}
}

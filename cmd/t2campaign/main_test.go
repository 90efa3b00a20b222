package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescale/internal/campaign"
)

// -update regenerates testdata/golden.json from the current implementation:
//
//	go test ./cmd/t2campaign -run TestGoldenReport -update
var update = flag.Bool("update", false, "rewrite the golden campaign report")

func TestRunUsageError(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err != errUsage {
		t.Fatalf("bad flag: err = %v, want errUsage", err)
	}
	// A grid point runs once with no wall-clock bound: there is no flag
	// to time it out or retry it.
	for _, args := range [][]string{{"-timeout", "1s"}, {"-retries", "2"}} {
		if err := run(args, &buf); err != errUsage {
			t.Errorf("%v: err = %v, want errUsage", args, err)
		}
	}
}

func TestRunRejectsUnknownSet(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scenario", "1", "-sets", "mi,bogus"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown message set "bogus"`) {
		t.Fatalf("err = %v, want unknown message set", err)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scenario", "9"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "no usage scenario 9") {
		t.Fatalf("err = %v, want unknown scenario", err)
	}
}

func TestRunSingleScenarioSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "1", "-sets", "mi,widest"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"t2 campaign: seed 1, 1 scenario(s)",
		"outcomes:",
		"mi",
		"widest",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "1", "-sets", "mi", "-metrics-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["campaign.runs.started"] == 0 || snap["campaign.runs.completed"] == 0 {
		t.Errorf("campaign counters missing from snapshot: %v", snap)
	}
	// Set building (selection and the ambiguity pair count) records into
	// the same registry.
	if snap["reconstruct.pair.counts"] == 0 {
		t.Errorf("reconstruct.pair.counts missing from snapshot: %v", snap)
	}
	interleave := false
	for k := range snap {
		interleave = interleave || strings.HasPrefix(k, "interleave.")
	}
	if !interleave {
		t.Errorf("no interleave.* key in snapshot: %v", snap)
	}
}

// renderReport runs the full default grid and returns the JSON report
// bytes and the parsed report.
func renderReport(t *testing.T, extra ...string) ([]byte, *campaign.Report) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	if err := run(append([]string{"-json", path}, extra...), &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return raw, &rep
}

// TestGoldenReport pins the full T2 grid at seed 1 byte-for-byte, and with
// it the acceptance criterion: the MI-selected message set must detect and
// localize at least as many injected bugs as every structural baseline.
func TestGoldenReport(t *testing.T) {
	raw, rep := renderReport(t)
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("report differs from testdata/golden.json (%d vs %d bytes); run with -update after verifying the change is intended",
			len(raw), len(want))
	}

	mi := rep.Card("mi")
	if mi == nil {
		t.Fatal("no mi scorecard")
	}
	for _, baseline := range []string{"widest", "pagerank", "random"} {
		b := rep.Card(baseline)
		if b == nil {
			t.Fatalf("no %s scorecard", baseline)
		}
		if mi.BugsLocalized < b.BugsLocalized {
			t.Errorf("mi localizes %d bugs, %s localizes %d — the paper's claim is violated",
				mi.BugsLocalized, baseline, b.BugsLocalized)
		}
		if mi.BugsDetected < b.BugsDetected {
			t.Errorf("mi detects %d bugs, %s detects %d", mi.BugsDetected, baseline, b.BugsDetected)
		}
	}
	// The §4 story is strict, not a tie: the structural baselines miss
	// bugs the MI set localizes.
	if best := maxBaselineLocalized(rep); mi.BugsLocalized <= best {
		t.Errorf("mi localizes %d bugs, best baseline %d — expected a strict margin", mi.BugsLocalized, best)
	}
	// The MI-vs-ambiguity head-to-head: the ambiguity-minimizing selection
	// must achieve the lowest expected reconstruction ambiguity of every
	// scored set, and every declared ambiguity is at least 1.
	recon := rep.Card("reconstruct")
	if recon == nil {
		t.Fatal("no reconstruct scorecard")
	}
	for _, c := range rep.Scorecards {
		if c.MeanAmbiguity < 1 {
			t.Errorf("%s mean ambiguity %g below 1 is impossible", c.Set, c.MeanAmbiguity)
		}
		if recon.MeanAmbiguity > c.MeanAmbiguity+1e-9 {
			t.Errorf("reconstruct mean ambiguity %g exceeds %s's %g — its own objective",
				recon.MeanAmbiguity, c.Set, c.MeanAmbiguity)
		}
	}
	if rep.Grid.Runs < 25 {
		t.Errorf("grid has %d runs, want the full catalog sweep (>= 25)", rep.Grid.Runs)
	}
	for _, r := range rep.Runs {
		if r.Outcome != campaign.OutcomeSymptom && r.Outcome != campaign.OutcomePass {
			t.Errorf("run %d outcome = %q (%s)", r.Index, r.Outcome, r.Detail)
		}
	}
}

func maxBaselineLocalized(rep *campaign.Report) int {
	best := 0
	for _, name := range []string{"widest", "pagerank", "random"} {
		if c := rep.Card(name); c != nil && c.BugsLocalized > best {
			best = c.BugsLocalized
		}
	}
	return best
}

// TestMinedGoldenReport pins the mined-vs-truth campaign byte-for-byte:
// the full grid with every selector run twice, once under the ground-truth
// flow specs and once under specs mined from golden traces. The acceptance
// criterion rides along: the mined mi set must detect within 2 bugs of the
// truth mi set.
func TestMinedGoldenReport(t *testing.T) {
	raw, rep := renderReport(t, "-mined", "-sets", "mi")
	golden := filepath.Join("testdata", "golden_mined.json")
	if *update {
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("report differs from testdata/golden_mined.json (%d vs %d bytes); run with -update after verifying the change is intended",
			len(raw), len(want))
	}

	if len(rep.Mining) != 3 {
		t.Fatalf("mining provenance covers %d scenarios, want 3", len(rep.Mining))
	}
	for _, mi := range rep.Mining {
		if mi.Flows == 0 || mi.Slices == 0 || mi.Traces == 0 {
			t.Errorf("%s mining info is empty: %+v", mi.Scenario, mi)
		}
	}
	truth, mined := rep.Card("mi"), rep.Card("mined:mi")
	if truth == nil || mined == nil {
		t.Fatalf("missing scorecards: truth %v mined %v", truth, mined)
	}
	if truth.Spec != campaign.SpecTruth || mined.Spec != campaign.SpecMined {
		t.Errorf("spec provenance: truth %q mined %q", truth.Spec, mined.Spec)
	}
	if d := truth.BugsDetected - mined.BugsDetected; d > 2 || d < -2 {
		t.Errorf("mined mi detects %d bugs, truth mi %d — more than 2 apart",
			mined.BugsDetected, truth.BugsDetected)
	}
	if mined.MeanAmbiguity < 1 {
		t.Errorf("mined mi mean ambiguity %g below 1 is impossible", mined.MeanAmbiguity)
	}
}

// Mining inherits the campaign's determinism guarantee: the mined-vs-truth
// report must be byte-identical at any worker count (mining's consistency
// oracle shards slices across the same worker budget).
func TestMinedReportIndependentOfWorkers(t *testing.T) {
	one, _ := renderReport(t, "-mined", "-scenario", "2", "-sets", "mi", "-workers", "1")
	again, _ := renderReport(t, "-mined", "-scenario", "2", "-sets", "mi", "-workers", "3")
	if !bytes.Equal(one, again) {
		t.Error("mined reports differ between -workers 1 and -workers 3")
	}
}

// The CLI must inherit the runner's determinism: every worker count —
// including the MI-vs-ambiguity scorecard's float aggregation — must
// reproduce the same report bytes (CI runs this package under -race).
func TestReportIndependentOfWorkers(t *testing.T) {
	one, _ := renderReport(t, "-workers", "1")
	for _, workers := range []string{"2", "4", "7"} {
		again, _ := renderReport(t, "-workers", workers)
		if !bytes.Equal(one, again) {
			t.Errorf("reports differ between -workers 1 and -workers %s", workers)
		}
	}
}

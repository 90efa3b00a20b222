package exp

import (
	"bytes"
	"strings"
	"testing"
)

// Each observed message narrows (never widens) the candidate-execution
// set, ending at the case study's Table-3 localization.
func TestLocalizationCurveMonotone(t *testing.T) {
	for _, id := range []int{1, 3, 5} {
		points, err := LocalizationCurve(id, seed)
		if err != nil {
			t.Fatalf("case %d: %v", id, err)
		}
		if len(points) < 2 {
			t.Fatalf("case %d: %d points", id, len(points))
		}
		if points[0].Localization != 1 {
			t.Errorf("case %d: localization before any observation = %g, want 1", id, points[0].Localization)
		}
		for i := 1; i < len(points); i++ {
			if points[i].Localization > points[i-1].Localization+1e-12 {
				t.Errorf("case %d: localization widened at step %d (%g -> %g)",
					id, i, points[i-1].Localization, points[i].Localization)
			}
		}
		last := points[len(points)-1].Localization
		if last > 0.1 || last <= 0 {
			t.Errorf("case %d: final localization = %g", id, last)
		}
	}
}

// The information-gain selection dominates the naive baselines on gain by
// construction and stays coverage-competitive.
func TestSelectionBaselines(t *testing.T) {
	rows, err := SelectionBaselines(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 6 methods x 3 scenarios", len(rows))
	}
	byKey := map[string]BaselineRow{}
	for _, r := range rows {
		byKey[r.Scenario+"/"+r.Method] = r
	}
	for _, s := range []string{"Scenario 1", "Scenario 2", "Scenario 3"} {
		ig := byKey[s+"/info-gain"]
		for _, m := range []string{"widest-first", "random(avg)", "max-coverage"} {
			if other := byKey[s+"/"+m]; ig.Gain < other.Gain-1e-9 {
				t.Errorf("%s: info-gain gain %.4f below %s gain %.4f", s, ig.Gain, m, other.Gain)
			}
		}
		// Coverage-competitive: within 10 points of the coverage-greedy.
		if mc := byKey[s+"/max-coverage"]; ig.Coverage < mc.Coverage-0.10 {
			t.Errorf("%s: info-gain coverage %.4f far below max-coverage %.4f", s, ig.Coverage, mc.Coverage)
		}
		// And clearly better than blind selection on coverage.
		if wf := byKey[s+"/widest-first"]; ig.Coverage < wf.Coverage {
			t.Errorf("%s: info-gain coverage %.4f below widest-first %.4f", s, ig.Coverage, wf.Coverage)
		}
		// Branch-bound is exact: it must reproduce the exhaustive info-gain
		// row identically, not just within tolerance.
		if bb := byKey[s+"/branch-bound"]; bb.Gain != ig.Gain || bb.Coverage != ig.Coverage {
			t.Errorf("%s: branch-bound (%.12f, %.12f) != info-gain (%.12f, %.12f)",
				s, bb.Gain, bb.Coverage, ig.Gain, ig.Coverage)
		}
		// Greedy is a heuristic: never above the exact optimum.
		if gr := byKey[s+"/greedy"]; gr.Gain > ig.Gain+1e-9 {
			t.Errorf("%s: greedy gain %.4f beats the exhaustive optimum %.4f", s, gr.Gain, ig.Gain)
		}
	}
}

func TestRenderCurves(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderLocalizationCurve(&buf, seed); err != nil {
		t.Fatal(err)
	}
	if err := RenderSelectionBaselines(&buf, seed); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Path localization vs observed", "case study 5", "Selection-strategy baselines", "widest-first"} {
		if !strings.Contains(out, want) {
			t.Errorf("curve rendering missing %q", want)
		}
	}
}

// Tagging never hurts and helps substantially on replicated flows.
func TestTaggingAblation(t *testing.T) {
	rows, err := TaggingAblation(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	helped := 0
	for _, r := range rows {
		if r.Tagged > r.Untagged+1e-12 {
			t.Errorf("%s x%d: tagged localization %.5f worse than untagged %.5f",
				r.Workload, r.Instances, r.Tagged, r.Untagged)
		}
		if r.Tagged < r.Untagged-1e-12 {
			helped++
		}
		if r.Tagged <= 0 {
			t.Errorf("%s x%d: tagged localization = %g; the sampled execution must remain consistent",
				r.Workload, r.Instances, r.Tagged)
		}
	}
	if helped < 2 {
		t.Errorf("tagging strictly helped in only %d of 4 workloads", helped)
	}
}

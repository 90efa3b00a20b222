package exp

import (
	"io"
	"testing"
)

func TestWidthSweepMonotone(t *testing.T) {
	widths := []int{8, 16, 24, 32, 48, 64}
	for sid := 1; sid <= 3; sid++ {
		points, err := WidthSweep(sid, widths)
		if err != nil {
			t.Fatalf("scenario %d: %v", sid, err)
		}
		if len(points) != len(widths) {
			t.Fatalf("scenario %d: %d points", sid, len(points))
		}
		for i := 1; i < len(points); i++ {
			if points[i].Gain < points[i-1].Gain-1e-12 {
				t.Errorf("scenario %d: gain fell from %.4f to %.4f at width %d",
					sid, points[i-1].Gain, points[i].Gain, points[i].Width)
			}
			if points[i].Coverage < points[i-1].Coverage-1e-12 {
				t.Errorf("scenario %d: coverage fell at width %d", sid, points[i].Width)
			}
		}
		// A 64-bit buffer holds most of each scenario's messages: coverage
		// approaches the all-messages ceiling.
		last := points[len(points)-1]
		if last.Coverage < 0.9 {
			t.Errorf("scenario %d: coverage at 64 bits = %.4f, want >= 0.9", sid, last.Coverage)
		}
	}
	if _, err := WidthSweep(9, widths); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// The width-sweep and depth sections print the report's bytes at the
// report's widths and depths.
func TestRenderSweeps(t *testing.T) {
	checkSections(t, map[string]func(io.Writer) error{
		"Extension — buffer-width sweep": func(w io.Writer) error { return MarkdownWidthSweep(w, []int{16, 32, 64}) },
		"Extension — buffer-depth study": func(w io.Writer) error { return MarkdownDepthStudy(w, []int{4, 16, 64, 128}, seed) },
	})
}

// The scalability claim: application-level selection is orders of
// magnitude cheaper than gate-level SRR selection, and SRR cost grows
// superlinearly with design size.
func TestScaling(t *testing.T) {
	rows, err := Scaling(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 3 app + 3 gate", len(rows))
	}
	var maxApp, minGate, firstGate, lastGate float64
	for _, r := range rows {
		sec := r.Elapsed.Seconds()
		switch r.Approach {
		case "app-level":
			if sec > maxApp {
				maxApp = sec
			}
		case "gate-level SRR":
			if minGate == 0 || sec < minGate {
				minGate = sec
			}
			if firstGate == 0 {
				firstGate = sec
			}
			lastGate = sec
		}
	}
	if minGate < maxApp*2 {
		t.Errorf("gate-level min %.4fs not clearly slower than app-level max %.4fs", minGate, maxApp)
	}
	if lastGate < firstGate*1.5 {
		t.Errorf("SRR cost grew only %.1fx from 64 to 256 FFs; expected superlinear growth",
			lastGate/firstGate)
	}
}

// Shallow buffers fabricate evidence; deep enough buffers converge to the
// full-trace observation and keep the ground truth plausible.
func TestDepthStudy(t *testing.T) {
	depths := []int{4, 16, 64, 256}
	rows, err := DepthStudy(1, depths, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(depths) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Misclassified > rows[i-1].Misclassified {
			t.Errorf("misclassifications grew with depth: %d@%d -> %d@%d",
				rows[i-1].Misclassified, rows[i-1].Depth, rows[i].Misclassified, rows[i].Depth)
		}
	}
	shallow, deep := rows[0], rows[len(rows)-1]
	if shallow.Misclassified == 0 {
		t.Errorf("depth %d misclassified nothing; the window should fabricate evidence", shallow.Depth)
	}
	if deep.Misclassified != 0 {
		t.Errorf("depth %d still misclassifies %d messages", deep.Depth, deep.Misclassified)
	}
	if !deep.GroundTruthSurvives {
		t.Error("full-depth debugging lost the ground truth")
	}
	if _, err := DepthStudy(9, depths, seed); err == nil {
		t.Error("unknown case accepted")
	}
}

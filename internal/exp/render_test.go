package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderTables(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	RenderTable2(&buf)
	if err := RenderTable3(&buf, seed); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable5(&buf, seed); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable6(&buf, seed); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable7(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "PIOR (6, 5)",
		"Table 2", "wrong command generation",
		"Table 3", "Utilization WP/WoP", "96.88%",
		"Table 5", "mondoacknack",
		"Table 6", "Root caused function", "Non-generation of Mondo interrupt",
		"Table 7", "selected messages",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestRenderFigures(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderFig5(&buf); err != nil {
		t.Fatal(err)
	}
	if err := RenderFig6(&buf, seed); err != nil {
		t.Fatal(err)
	}
	if err := RenderFig7(&buf, seed); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 5", "Spearman", "Figure 6", "causes left", "Figure 7", "average pruned"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure rendering missing %q", want)
		}
	}
}

func TestRenderCSVFigures(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderCSVFig5(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "scenario,gain,coverage,width\n") {
		t.Errorf("fig5 CSV header wrong: %q", buf.String()[:40])
	}
	if got := strings.Count(buf.String(), "\n"); got < 100 {
		t.Errorf("fig5 CSV has only %d lines", got)
	}
	buf.Reset()
	if err := RenderCSVFig6(&buf, seed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "case,step,message,pairs_left,causes_left") {
		t.Error("fig6 CSV header missing")
	}
	buf.Reset()
	if err := RenderCSVFig7(&buf, seed); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Errorf("fig7 CSV has %d lines, want header + 5", len(lines))
	}
}

// The markdown report regenerates the whole evaluation; spot-check every
// section is present and the tables are well-formed.
func TestRenderMarkdown(t *testing.T) {
	out := string(renderedReport(t))
	for _, want := range []string{
		"# tracescale evaluation report",
		"## Table 1", "## Table 2", "## Table 3", "## Table 4",
		"## Table 5", "## Table 6", "## Table 7",
		"## Figure 5", "## Figure 6", "## Figure 7",
		"| Case | Scenario | Util WP |",
		"Average pruned: 83.61%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Every markdown table row must have balanced pipes with its header.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Errorf("unterminated table row: %q", line)
		}
	}
}

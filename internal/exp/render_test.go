package exp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// reportSection returns the rendered report's section whose heading
// starts with title: from the blank line before its heading to the next
// section's.
func reportSection(t *testing.T, title string) string {
	t.Helper()
	report := string(renderedReport(t))
	i := strings.Index(report, "\n## "+title)
	if i < 0 {
		t.Fatalf("report has no %q section", title)
	}
	if n := strings.Index(report[i+1:], "\n## "); n >= 0 {
		return report[i : i+1+n]
	}
	return report[i:]
}

// checkSections runs each section writer alone and requires the bytes
// the report prints for it: paperbench's section flags and the report
// share one writer per section.
func checkSections(t *testing.T, sections map[string]func(io.Writer) error) {
	t.Helper()
	for title, write := range sections {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		if want := reportSection(t, title); buf.String() != want {
			t.Errorf("%s section drifted from the report's:\n got:\n%s\nwant:\n%s", title, buf.String(), want)
		}
	}
}

func TestRenderTables(t *testing.T) {
	checkSections(t, map[string]func(io.Writer) error{
		"Table 1": MarkdownTable1,
		"Table 2": func(w io.Writer) error { MarkdownTable2(w); return nil },
		"Table 3": func(w io.Writer) error { return MarkdownTable3(w, seed) },
		"Table 5": func(w io.Writer) error { return MarkdownTable5(w, seed) },
		"Table 6": func(w io.Writer) error { return MarkdownTable6(w, seed) },
		"Table 7": MarkdownTable7,
	})
}

func TestRenderFigures(t *testing.T) {
	checkSections(t, map[string]func(io.Writer) error{
		"Figure 5": MarkdownFig5,
		"Figure 6": func(w io.Writer) error { return MarkdownFig6(w, seed) },
		"Figure 7": func(w io.Writer) error { return MarkdownFig7(w, seed) },
	})
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

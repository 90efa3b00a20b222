package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// report is the seed's markdown report, rendered once for every test that
// checks it: rendering reruns the whole evaluation.
var report struct {
	once sync.Once
	out  []byte
	err  error
}

func renderedReport(t *testing.T) []byte {
	t.Helper()
	report.once.Do(func() {
		var buf bytes.Buffer
		report.err = RenderMarkdown(&buf, seed)
		report.out = buf.Bytes()
	})
	if report.err != nil {
		t.Fatal(report.err)
	}
	return report.out
}

// The full markdown evaluation report is pinned as a golden file: any
// behavioral drift anywhere in the pipeline — selection, simulation,
// debugging, localization — shows up as a diff here. Regenerate
// deliberately with `go test ./internal/exp -run Golden -update`.
func TestGoldenMarkdownReport(t *testing.T) {
	got := renderedReport(t)
	path := filepath.Join("testdata", "report.golden.md")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				start := i - 40
				if start < 0 {
					start = 0
				}
				t.Fatalf("report drifted at line %d:\n got ...%q\nwant ...%q\n(re-run with -update if intentional)",
					line, got[start:min(i+40, len(got))], want[start:min(i+40, len(want))])
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("report length changed: %d vs %d bytes (re-run with -update if intentional)", len(got), len(want))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

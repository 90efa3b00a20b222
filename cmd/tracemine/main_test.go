package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/spec"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
)

// writeTrace renders entries into a trace file under dir.
func writeTrace(t *testing.T, dir, name string, entries []tbuf.Entry) string {
	t.Helper()
	p := filepath.Join(dir, name)
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, entries); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return p
}

// chainEntries emits tags' worth of the chain [a, b, c], one cycle apart.
func chainEntries(tags int, names ...string) []tbuf.Entry {
	var out []tbuf.Entry
	cycle := uint64(0)
	for tag := 1; tag <= tags; tag++ {
		for _, n := range names {
			out = append(out, tbuf.Entry{
				Cycle: cycle, Msg: flow.IndexedMsg{Name: n, Index: tag}, Data: 1, Bits: 3,
			})
			cycle++
		}
	}
	return out
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	single := writeTrace(t, dir, "single.trace", chainEntries(3, "a", "b", "c"))
	second := writeTrace(t, dir, "second.trace", chainEntries(2, "a", "b", "c"))
	lone := writeTrace(t, dir, "lone.trace", chainEntries(1, "a", "b", "c"))
	// An interleaved two-flow corpus: per tag, flow [a, b] and flow [x, y]
	// in varied relative orders so the pair statistics separate them.
	mix := func(tag int, names ...string) []tbuf.Entry {
		var out []tbuf.Entry
		for i, n := range names {
			out = append(out, tbuf.Entry{
				Cycle: uint64(tag*10 + i), Msg: flow.IndexedMsg{Name: n, Index: tag}, Data: 1, Bits: 2,
			})
		}
		return out
	}
	var corpus []tbuf.Entry
	corpus = append(corpus, mix(1, "a", "x", "b", "y")...)
	corpus = append(corpus, mix(2, "x", "a", "y", "b")...)
	corpus = append(corpus, mix(3, "a", "x", "y", "b")...)
	corpus = append(corpus, mix(4, "x", "y", "a", "b")...)
	interleavedPath := writeTrace(t, dir, "mix.trace", corpus)

	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("@7 1:wide "+strings.Repeat("0", 64)+"1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name    string
		args    []string
		want    []string // substrings of the output
		wantErr string   // substring of the error
	}{
		{
			name: "summary",
			args: []string{single},
			want: []string{"mined 1 flows from 3 transaction slices across 1 traces", "flow 0 (3 complete, 0 truncated)", "1. a", "3. c"},
		},
		{
			name: "merged summary",
			args: []string{single, second},
			want: []string{"mined 1 flows from 5 transaction slices across 2 traces", "(5 complete, 0 truncated)"},
		},
		{
			name: "directory expansion visits sorted traces",
			args: []string{dir},
			// bad.trace sorts first, so the directory walk must hit its
			// parse error before anything else.
			wantErr: "bad.trace",
		},
		{
			name: "interleaved summary",
			args: []string{interleavedPath},
			want: []string{"mined 2 flows from 4 transaction slices", "a", "x"},
		},
		{
			name:    "no args",
			args:    nil,
			wantErr: "usage",
		},
		{
			name:    "missing file",
			args:    []string{filepath.Join(dir, "absent.trace")},
			wantErr: "absent.trace",
		},
		{
			name:    "oversized data field rejected",
			args:    []string{bad},
			wantErr: "65 bits",
		},
		{
			name:    "interleaved rejects bad support",
			args:    []string{"-min-support", "-1", interleavedPath},
			wantErr: "min support",
		},
		{
			name:    "single transaction is below the default support",
			args:    []string{lone},
			wantErr: "no message occurs in 2 or more slices",
		},
		{
			name: "single transaction mines at support 1",
			args: []string{"-min-support", "1", lone},
			want: []string{"mined 1 flows from 1 transaction slices across 1 traces", "3. c"},
		},
		{
			name:    "instances must be positive",
			args:    []string{"-spec", "-instances", "0", single},
			wantErr: "instances 0",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, w := range tc.want {
				if !strings.Contains(buf.String(), w) {
					t.Errorf("output missing %q:\n%s", w, buf.String())
				}
			}
		})
	}
}

// Emitted specs must parse and build: tracemine can never hand tracesel an
// invalid document.
func TestRunEmitsValidSpecs(t *testing.T) {
	dir := t.TempDir()
	single := writeTrace(t, dir, "single.trace", chainEntries(3, "a", "b", "c"))
	var corpus []tbuf.Entry
	orders := [][]string{{"a", "x", "b", "y"}, {"x", "a", "y", "b"}, {"a", "x", "y", "b"}}
	for tag, names := range orders {
		for i, n := range names {
			corpus = append(corpus, tbuf.Entry{
				Cycle: uint64(tag*10 + i), Msg: flow.IndexedMsg{Name: n, Index: tag + 1}, Data: 1, Bits: 2,
			})
		}
	}
	mixed := writeTrace(t, dir, "mix.trace", corpus)

	for _, tc := range []struct {
		name      string
		args      []string
		flows     int
		instances int
	}{
		{"single flow", []string{"-spec", "-name", "pio", single}, 1, 1},
		{"two instances", []string{"-spec", "-instances", "2", single}, 1, 2},
		{"interleaved corpus", []string{"-spec", "-name", "mixed", "-instances", "2", mixed}, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			s, err := spec.Parse(&buf)
			if err != nil {
				t.Fatalf("emitted spec does not parse: %v", err)
			}
			if len(s.Flows) != tc.flows {
				t.Errorf("spec has %d flows, want %d", len(s.Flows), tc.flows)
			}
			insts, err := s.Build()
			if err != nil {
				t.Fatalf("emitted spec does not build: %v", err)
			}
			if len(insts) != tc.flows*tc.instances {
				t.Errorf("spec builds %d instances, want %d", len(insts), tc.flows*tc.instances)
			}
		})
	}
}

package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/tbuf"
)

func sample() []tbuf.Entry {
	return []tbuf.Entry{
		{Cycle: 10, Msg: flow.IndexedMsg{Name: "reqtot", Index: 1}, Data: 0b1010, Bits: 4},
		{Cycle: 12, Msg: flow.IndexedMsg{Name: "grant", Index: 1}, Data: 0b0001, Bits: 4},
		{Cycle: 15, Msg: flow.IndexedMsg{Name: "reqtot", Index: 2}, Data: 0b0110, Bits: 4},
		{Cycle: 20, Msg: flow.IndexedMsg{Name: "siincu", Index: 1}, Data: 0b1, Bits: 1},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(back) != len(want) {
		t.Fatalf("entries = %d, want %d", len(back), len(want))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, back[i], want[i])
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n@5 1:m 01\n   \n# done\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Cycle != 5 || got[0].Bits != 2 || got[0].Data != 1 {
		t.Errorf("got %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"@5 1:m",            // missing data
		"5 1:m 01",          // missing @
		"@x 1:m 01",         // bad cycle
		"@5 m 01",           // missing index
		"@5 a:m 01",         // bad index
		"@5 1: 01",          // empty name
		"@5 1:m 012",        // non-binary data
		"@5 1:m 01 extra z", // too many fields
		"@5 -3:m 01",        // negative instance index
		"@5 1:m " + strings.Repeat("0", 65) + "1", // 66-bit data field
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c))
		if err == nil {
			t.Errorf("parsed %q", c)
			continue
		}
		if _, ref := refParse(strings.NewReader(c)); err.Error() != ref.Error() {
			t.Errorf("%q: error %q, reference %q", c, err, ref)
		}
	}
}

// Parse keeps refParse's 4 MiB line cap: a line that fills the scanner's
// largest buffer, newline included, parses, and one byte more is an error.
func TestParseLineCap(t *testing.T) {
	for extra, wantOK := range []bool{true, false} {
		line := "@1 1:" + strings.Repeat("m", 1<<22-len("@1 1: 1\n")+extra) + " 1\n"
		got, err := Parse(strings.NewReader(line))
		want, wantErr := refParse(strings.NewReader(line))
		if (err == nil) != wantOK || (wantErr == nil) != wantOK {
			t.Fatalf("%d-byte line: err %v, reference %v; want success %v", len(line), err, wantErr, wantOK)
		}
		if err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%d-byte line: error %q, reference %q", len(line), err, wantErr)
		}
		if len(got) != len(want) || len(got) == 1 && got[0] != want[0] {
			t.Errorf("%d-byte line: %d entries, reference %d", len(line), len(got), len(want))
		}
	}
}

// Write renders each entry as its String line, byte for byte, whatever
// the entry's width: zero, narrower than the data, or padded.
func TestWriteMatchesEntryString(t *testing.T) {
	entries := []tbuf.Entry{
		{Cycle: 0, Msg: flow.IndexedMsg{Name: "zero", Index: 0}, Data: 0, Bits: 0},
		{Cycle: 3, Msg: flow.IndexedMsg{Name: "nobits", Index: 2}, Data: 0b101, Bits: 0},
		{Cycle: 4, Msg: flow.IndexedMsg{Name: "narrow", Index: 0}, Data: 0b10110, Bits: 3},
		{Cycle: 5, Msg: flow.IndexedMsg{Name: "padded", Index: 7}, Data: 0b101, Bits: 8},
		{Cycle: 6, Msg: flow.IndexedMsg{Name: "one", Index: 1}, Data: 0, Bits: 1},
		{Cycle: math.MaxUint64, Msg: flow.IndexedMsg{Name: "full", Index: math.MaxInt}, Data: math.MaxUint64, Bits: 64},
		{Cycle: 8, Msg: flow.IndexedMsg{Name: "wide", Index: -3}, Data: 1, Bits: 70},
	}
	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, e := range entries {
		want.WriteString(e.String() + "\n")
	}
	if buf.String() != want.String() {
		t.Errorf("Write wrote\n%s\nwant\n%s", buf.String(), want.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteReportsWriterError(t *testing.T) {
	long := make([]tbuf.Entry, 1000) // past bufio's buffer, so Write itself fails
	err := Write(failWriter{}, long)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("err = %v, want the writer's error", err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sample())
	if s.Entries != 4 {
		t.Errorf("Entries = %d", s.Entries)
	}
	if s.FirstCycle != 10 || s.LastCycle != 20 || s.Span() != 11 {
		t.Errorf("cycle window = [%d, %d] span %d", s.FirstCycle, s.LastCycle, s.Span())
	}
	if s.PerMessage["reqtot"] != 2 || s.PerMessage["grant"] != 1 {
		t.Errorf("PerMessage = %v", s.PerMessage)
	}
	if s.PerIndexed[flow.IndexedMsg{Name: "reqtot", Index: 2}] != 1 {
		t.Errorf("PerIndexed = %v", s.PerIndexed)
	}
	if got := s.Names(); len(got) != 3 || got[0] != "grant" {
		t.Errorf("Names = %v", got)
	}
	empty := Summarize(nil)
	if empty.Span() != 0 {
		t.Errorf("empty span = %d", empty.Span())
	}
}

func TestProject(t *testing.T) {
	got := Project(sample(), 1)
	if len(got) != 3 {
		t.Fatalf("projected %d entries", len(got))
	}
	if got[0].Name != "reqtot" || got[1].Name != "grant" || got[2].Name != "siincu" {
		t.Errorf("projection = %v", got)
	}
	if out := Project(nil, 1); out != nil {
		t.Errorf("Project(nil) = %v", out)
	}
}

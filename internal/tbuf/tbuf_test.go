package tbuf

import (
	"testing"
	"testing/quick"

	"tracescale/internal/flow"
)

func TestBufferBasics(t *testing.T) {
	b := New(32, 4)
	if b.Width() != 32 || b.Depth() != 4 {
		t.Fatalf("dims = %d/%d", b.Width(), b.Depth())
	}
	if b.Len() != 0 || b.Total() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	b.Record(Entry{Cycle: 1, Msg: flow.IndexedMsg{Name: "m", Index: 1}, Data: 5, Bits: 3})
	if b.Len() != 1 || b.Total() != 1 {
		t.Errorf("Len/Total = %d/%d", b.Len(), b.Total())
	}
}

func TestBufferCircularEviction(t *testing.T) {
	b := New(8, 3)
	for i := 1; i <= 5; i++ {
		b.Record(Entry{Cycle: uint64(i), Msg: flow.IndexedMsg{Name: "m", Index: i}, Data: uint64(i), Bits: 3})
	}
	if b.Total() <= b.Depth() {
		t.Errorf("Total = %d within depth %d, buffer should have overflowed", b.Total(), b.Depth())
	}
	got := b.Entries()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want 3", len(got))
	}
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Cycle != want {
			t.Errorf("entry %d cycle = %d, want %d (oldest-first)", i, got[i].Cycle, want)
		}
	}
	if b.Total() != 5 {
		t.Errorf("Total = %d, want 5", b.Total())
	}
}

func TestBufferTooWideEntryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for over-wide entry")
		}
	}()
	New(4, 2).Record(Entry{Bits: 5})
}

func TestNewInvalidDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero width")
		}
	}()
	New(0, 2)
}

func TestEntryString(t *testing.T) {
	e := Entry{Cycle: 42, Msg: flow.IndexedMsg{Name: "GntE", Index: 2}, Data: 0b101, Bits: 4}
	if got := e.String(); got != "@42 2:GntE 0101" {
		t.Errorf("String = %q", got)
	}
}

func TestCapturePlanFullAndSubgroup(t *testing.T) {
	p, err := NewCapturePlan([]Rule{
		{Message: "hdr", Width: 4, Offset: 0, Bits: 4},
		{Message: "payload", Width: 20, Offset: 8, Bits: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBits() != 10 {
		t.Errorf("TotalBits = %d, want 10", p.TotalBits())
	}
	if got := p.Messages(); len(got) != 2 || got[0] != "hdr" || got[1] != "payload" {
		t.Errorf("Messages = %v", got)
	}
	// Subgroup window [8,14) of the payload.
	e, ok := p.Capture(flow.IndexedMsg{Name: "payload", Index: 1}, 0b111111_11111111)
	if !ok {
		t.Fatal("Capture failed")
	}
	if e.Bits != 6 || e.Data != 0b111111 {
		t.Errorf("captured %0*b (%d bits)", e.Bits, e.Data, e.Bits)
	}
	e, ok = p.Capture(flow.IndexedMsg{Name: "payload", Index: 1}, 0xFF) // only low 8 bits set
	if !ok || e.Data != 0 {
		t.Errorf("window should be empty, got %b", e.Data)
	}
	if _, ok := p.Capture(flow.IndexedMsg{Name: "other", Index: 1}, 1); ok {
		t.Error("captured unobserved message")
	}
}

func TestCapturePlanValidation(t *testing.T) {
	cases := []struct {
		name  string
		rules []Rule
	}{
		{"empty name", []Rule{{Message: "", Width: 4, Bits: 1}}},
		{"duplicate", []Rule{{Message: "m", Width: 4, Bits: 1}, {Message: "m", Width: 4, Bits: 2}}},
		{"window overflow", []Rule{{Message: "m", Width: 4, Offset: 2, Bits: 3}}},
		{"zero bits", []Rule{{Message: "m", Width: 4, Bits: 0}}},
		{"negative offset", []Rule{{Message: "m", Width: 4, Offset: -1, Bits: 1}}},
		{"too wide", []Rule{{Message: "m", Width: 65, Bits: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCapturePlan(tc.rules); err == nil {
				t.Errorf("rules %v accepted", tc.rules)
			}
		})
	}
}

// Property: the circular buffer always returns the most recent min(total,
// depth) entries in order.
func TestBufferRetentionProperty(t *testing.T) {
	f := func(depthSeed uint8, n uint8) bool {
		depth := 1 + int(depthSeed%8)
		b := New(8, depth)
		for i := 0; i < int(n); i++ {
			b.Record(Entry{Cycle: uint64(i), Bits: 1})
		}
		got := b.Entries()
		want := int(n)
		if want > depth {
			want = depth
		}
		if len(got) != want {
			return false
		}
		for i, e := range got {
			if e.Cycle != uint64(int(n)-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

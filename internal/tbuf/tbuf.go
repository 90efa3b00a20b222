// Package tbuf models the on-chip trace buffer of a post-silicon debug
// setup: a fixed-width, fixed-depth circular memory that records selected
// message observations cycle-stamped, plus the capture plan that maps a
// message-selection result onto buffer bits (full messages and packed
// subgroups).
package tbuf

import (
	"fmt"
	"sort"

	"tracescale/internal/flow"
)

// Entry is one recorded observation: at cycle Cycle, the traced bits Data
// (Bits wide) of message Msg were captured.
type Entry struct {
	Cycle uint64
	Msg   flow.IndexedMsg
	Data  uint64
	Bits  int
}

// String renders the entry as a trace-file line.
func (e Entry) String() string {
	return fmt.Sprintf("@%d %s %0*b", e.Cycle, e.Msg, e.Bits, e.Data)
}

// Buffer is a circular trace buffer. Width is the number of trace bits
// available per cycle (the selection budget); Depth is the number of
// entries retained before the oldest are overwritten.
type Buffer struct {
	width   int
	depth   int
	entries []Entry
	start   int
	total   int
}

// New returns a buffer with the given width (bits) and depth (entries).
func New(width, depth int) *Buffer {
	if width < 1 || depth < 1 {
		panic(fmt.Sprintf("tbuf: invalid dimensions width=%d depth=%d", width, depth))
	}
	return &Buffer{width: width, depth: depth}
}

// Width returns the buffer width in bits.
func (b *Buffer) Width() int { return b.width }

// Depth returns the buffer depth in entries.
func (b *Buffer) Depth() int { return b.depth }

// Record appends an entry, evicting the oldest when full. Entries wider
// than the buffer are a caller bug and panic.
func (b *Buffer) Record(e Entry) {
	if e.Bits > b.width {
		panic(fmt.Sprintf("tbuf: entry of %d bits exceeds buffer width %d", e.Bits, b.width))
	}
	if len(b.entries) < b.depth {
		b.entries = append(b.entries, e)
	} else {
		b.entries[b.start] = e
		b.start = (b.start + 1) % b.depth
	}
	b.total++
}

// Entries returns the surviving entries oldest-first.
func (b *Buffer) Entries() []Entry {
	out := make([]Entry, 0, len(b.entries))
	for i := 0; i < len(b.entries); i++ {
		out = append(out, b.entries[(b.start+i)%len(b.entries)])
	}
	return out
}

// Len returns the number of entries currently held.
func (b *Buffer) Len() int { return len(b.entries) }

// Total returns the number of entries ever recorded.
func (b *Buffer) Total() int { return b.total }

// Rule describes how one message is captured: Bits of its Width, starting
// at bit Offset. Bits == Width captures the full message (a Step-2
// selection); Bits < Width captures a packed subgroup (Step 3).
type Rule struct {
	Message string
	Width   int
	Offset  int
	Bits    int
}

// CapturePlan maps message names to capture rules. It is the software
// model of the trace-port configuration programmed after selection.
type CapturePlan struct {
	rules map[string]Rule
}

// NewCapturePlan validates and indexes the rules. Each message may appear
// once; the captured window must lie within the message.
func NewCapturePlan(rules []Rule) (*CapturePlan, error) {
	p := &CapturePlan{rules: make(map[string]Rule, len(rules))}
	for _, r := range rules {
		if r.Message == "" {
			return nil, fmt.Errorf("tbuf: rule with empty message name")
		}
		if _, dup := p.rules[r.Message]; dup {
			return nil, fmt.Errorf("tbuf: duplicate rule for message %q", r.Message)
		}
		if r.Width < 1 || r.Bits < 1 || r.Offset < 0 || r.Offset+r.Bits > r.Width {
			return nil, fmt.Errorf("tbuf: rule for %q captures [%d,%d) of %d-bit message",
				r.Message, r.Offset, r.Offset+r.Bits, r.Width)
		}
		if r.Width > 64 {
			return nil, fmt.Errorf("tbuf: message %q wider than 64 bits is not supported", r.Message)
		}
		p.rules[r.Message] = r
	}
	return p, nil
}

// TotalBits returns the summed captured bits across rules — the buffer
// width the plan requires.
func (p *CapturePlan) TotalBits() int {
	w := 0
	for _, r := range p.rules {
		w += r.Bits
	}
	return w
}

// Messages returns the captured message names, sorted.
func (p *CapturePlan) Messages() []string {
	out := make([]string, 0, len(p.rules))
	for n := range p.rules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Capture extracts the traced bits of a message observation. ok is false
// when the plan does not observe the message.
func (p *CapturePlan) Capture(msg flow.IndexedMsg, data uint64) (Entry, bool) {
	r, ok := p.rules[msg.Name]
	if !ok {
		return Entry{}, false
	}
	window := (data >> uint(r.Offset)) & mask(r.Bits)
	return Entry{Msg: msg, Data: window, Bits: r.Bits}, true
}

func mask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(bits)) - 1
}

// Package mine infers flow specifications from passing-run traces. The
// paper assumes flows arrive as architectural collateral; in practice
// teams often bootstrap that collateral by mining the message order out of
// traces (Nadimi & Zheng's flow-specification mining, PAPERS.md). Two
// miners are provided: Chain recovers one linear flow from a directed
// single-protocol test (exactly the single-flow tests of the regression
// environment), and Corpus infers a whole flow set from interleaved
// multi-flow trace corpora, pruning interleaving artifacts by checking
// each trace slice for consistency with the candidate chains in one
// linear pass.
package mine

import (
	"fmt"
	"sort"

	"tracescale/internal/flow"
	"tracescale/internal/tbuf"
)

// Observation describes a mined message.
type Observation struct {
	Name  string
	Width int // widest captured entry
	Count int // occurrences across all tags
}

// Mined is one mined linear flow.
type Mined struct {
	// Order is the common per-tag message sequence.
	Order []Observation
	// Tags is the number of complete transactions witnessed: tags whose
	// sequence spans the whole chain.
	Tags int
	// Skipped counts transactions that survived only as a contiguous
	// fragment of the chain — the leading tags a wrapping circular buffer
	// evicted the head of, or trailing tags still in flight when capture
	// stopped. Their entries still contribute to Width and Count.
	Skipped int
	// SkippedTags lists the truncated transaction tags, ascending. It is
	// only populated by Chain: corpus mining spans several trace files
	// whose tag spaces collide, so Corpus reports per-flow skip counts
	// without tag identities.
	SkippedTags []int
}

// Chain mines a linear flow from the trace of a test that exercises one
// protocol: entries are grouped by tag, the longest tag sequence is the
// reference chain (a truncated transaction can only be shorter than a
// complete one, never longer), every other tag must match it exactly or be
// a contiguous fragment of it, and the shared sequence becomes the chain.
// Fragments arise from circular-buffer wraparound (tbuf evicts oldest
// entries, cutting the head of the earliest transactions) and from
// capture stopping mid-transaction (cutting the tail); they are skipped
// and reported rather than mis-flagged as protocol violations. Endpoints
// (Src/Dst) are not recoverable from a trace file and are left empty.
func Chain(entries []tbuf.Entry) (*Mined, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("mine: empty trace")
	}
	perTag := map[int][]tbuf.Entry{}
	var tags []int
	for _, e := range entries {
		if _, ok := perTag[e.Msg.Index]; !ok {
			tags = append(tags, e.Msg.Index)
		}
		perTag[e.Msg.Index] = append(perTag[e.Msg.Index], e)
	}

	refTag := tags[0]
	for _, tag := range tags[1:] {
		if len(perTag[tag]) > len(perTag[refTag]) {
			refTag = tag
		}
	}
	ref := perTag[refTag]

	// A message may not repeat within the chain: the linear-flow model
	// maps each to one transition.
	pos := make(map[string]int, len(ref))
	order := make([]Observation, len(ref))
	for j, e := range ref {
		if _, dup := pos[e.Msg.Name]; dup {
			return nil, fmt.Errorf("mine: message %s repeats within a transaction; not a simple chain", e.Msg.Name)
		}
		pos[e.Msg.Name] = j
		order[j] = Observation{Name: e.Msg.Name}
	}

	m := &Mined{Order: order}
	for _, tag := range tags {
		seq := perTag[tag]
		// Align on the first surviving message: a truncated transaction is
		// a contiguous infix of the reference, so its offset is fixed by
		// where its first message sits in the chain.
		off, ok := pos[seq[0].Msg.Name]
		if !ok {
			return nil, fmt.Errorf("mine: tag %d saw %s, which tag %d never saw — not a single linear flow",
				tag, seq[0].Msg.Name, refTag)
		}
		if off+len(seq) > len(ref) {
			return nil, fmt.Errorf("mine: tag %d saw %d messages from %s on, tag %d only %d — not a single linear flow",
				tag, len(seq), seq[0].Msg.Name, refTag, len(ref)-off)
		}
		for j, e := range seq {
			o := &m.Order[off+j]
			if e.Msg.Name != o.Name {
				return nil, fmt.Errorf("mine: tag %d message %d is %s, tag %d saw %s — inconsistent ordering",
					tag, off+j, e.Msg.Name, refTag, o.Name)
			}
			if e.Bits > o.Width {
				o.Width = e.Bits
			}
			o.Count++
		}
		if len(seq) == len(ref) {
			m.Tags++
		} else {
			m.SkippedTags = append(m.SkippedTags, tag)
		}
	}
	m.Skipped = len(m.SkippedTags)
	sort.Ints(m.SkippedTags)
	return m, nil
}

// Flow materializes the mined chain as a flow DAG named name, with
// synthesized state names S0..Sn.
func (m *Mined) Flow(name string) (*flow.Flow, error) {
	if len(m.Order) == 0 {
		return nil, fmt.Errorf("mine: nothing mined")
	}
	b := flow.NewBuilder(name)
	states := make([]string, len(m.Order)+1)
	for i := range states {
		states[i] = fmt.Sprintf("S%d", i)
	}
	b.States(states...)
	b.Init(states[0])
	b.Stop(states[len(states)-1])
	msgs := make([]string, len(m.Order))
	for i, o := range m.Order {
		b.Message(flow.Message{Name: o.Name, Width: o.Width})
		msgs[i] = o.Name
	}
	b.Chain(states, msgs)
	return b.Build()
}

// Merge combines chains mined from several trace files of the same
// protocol: every file must have seen the same message order; widths take
// the maximum and counts, tags, and skips accumulate.
func Merge(ms []*Mined) (*Mined, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("mine: nothing to merge")
	}
	out := &Mined{
		Order:       append([]Observation(nil), ms[0].Order...),
		Tags:        ms[0].Tags,
		Skipped:     ms[0].Skipped,
		SkippedTags: append([]int(nil), ms[0].SkippedTags...),
	}
	for _, m := range ms[1:] {
		if len(m.Order) != len(out.Order) {
			return nil, fmt.Errorf("mine: corpus disagrees: %d-message chain vs %d — not the same flow",
				len(m.Order), len(out.Order))
		}
		for j, o := range m.Order {
			if o.Name != out.Order[j].Name {
				return nil, fmt.Errorf("mine: corpus disagrees at position %d: %s vs %s — not the same flow",
					j, o.Name, out.Order[j].Name)
			}
			if o.Width > out.Order[j].Width {
				out.Order[j].Width = o.Width
			}
			out.Order[j].Count += o.Count
		}
		out.Tags += m.Tags
		out.Skipped += m.Skipped
		out.SkippedTags = append(out.SkippedTags, m.SkippedTags...)
	}
	sort.Ints(out.SkippedTags)
	return out, nil
}

// Package mine infers flow specifications from passing-run traces. The
// paper assumes flows arrive as architectural collateral; in practice
// teams often bootstrap that collateral by mining the message order out of
// traces (Nadimi & Zheng's flow-specification mining, PAPERS.md). One
// miner, Corpus, infers a flow set from a trace corpus, pruning
// interleaving artifacts by checking each trace slice for consistency with
// the candidate chains in one linear pass. A directed single-protocol test
// (the single-flow tests of the regression environment) is the one-flow
// case of the same corpus.
package mine

import (
	"fmt"

	"tracescale/internal/flow"
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

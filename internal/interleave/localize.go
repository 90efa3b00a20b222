package interleave

import (
	"fmt"
	"math/big"

	"tracescale/internal/flow"
)

// MatchMode selects how an observed trace constrains candidate executions.
type MatchMode int

const (
	// Prefix treats the observation as the trace of a possibly incomplete
	// execution (the usual post-silicon situation: the buffer stops at the
	// failure). An execution is consistent if its projection onto the
	// traced messages starts with the observed sequence.
	Prefix MatchMode = iota
	// Exact requires the projection to equal the observed sequence.
	Exact
)

// ConsistentPaths counts the executions of the interleaved flow that are
// consistent with observing the sequence observed over the traced message
// set traced (a set of unindexed message names; tracing a message makes
// all of its indexed instances observable). Path localization in the paper
// is ConsistentPaths / TotalPaths.
//
// An observed message whose name is not in traced is an error: the trace
// buffer cannot contain a message that was never traced.
func (p *Product) ConsistentPaths(traced map[string]bool, observed []flow.IndexedMsg, mode MatchMode) (*big.Int, error) {
	c, err := p.NewCounter(traced, observed, mode)
	if err != nil {
		return nil, err
	}
	return c.Total(), nil
}

// Localization returns the fraction of the interleaved flow's executions
// consistent with the observation: ConsistentPaths / TotalPaths as a
// float64 in [0, 1]. It returns an error for inconsistent arguments or an
// empty path space.
func (p *Product) Localization(traced map[string]bool, observed []flow.IndexedMsg, mode MatchMode) (float64, error) {
	consistent, err := p.ConsistentPaths(traced, observed, mode)
	if err != nil {
		return 0, err
	}
	total := p.TotalPaths()
	if total.Sign() == 0 {
		return 0, fmt.Errorf("interleave: interleaved flow has no executions")
	}
	frac := new(big.Rat).SetFrac(consistent, total)
	f, _ := frac.Float64()
	return f, nil
}

// ProjectTrace filters an execution trace down to the traced message set,
// preserving order: the sequence a trace buffer recording exactly those
// messages would contain.
func ProjectTrace(trace []flow.IndexedMsg, traced map[string]bool) []flow.IndexedMsg {
	var out []flow.IndexedMsg
	for _, m := range trace {
		if traced[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

// ConsistentPathsUnindexed counts the executions consistent with an
// observation whose entries carry no instance tags — the situation on a
// design without architectural tagging support, which the paper's
// Definition 3 formalizes away. An untagged observation entry matches any
// indexed instance of that message name, so localization is strictly
// weaker than with tags; the difference measures what tagging buys.
func (p *Product) ConsistentPathsUnindexed(traced map[string]bool, observed []string, mode MatchMode) (*big.Int, error) {
	untagged := make([]flow.IndexedMsg, len(observed))
	for i, name := range observed {
		if !traced[name] {
			return nil, fmt.Errorf("interleave: observed message %s is not in the traced set", name)
		}
		untagged[i] = flow.IndexedMsg{Name: name}
	}
	c := p.newCounter(traced, untagged, mode)
	c.byName = true
	return c.Total(), nil
}

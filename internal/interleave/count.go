package interleave

import (
	"fmt"
	"math/big"

	"tracescale/internal/flow"
)

// Counter is the product's one execution-counting core: the (state,
// matched-prefix) dynamic program over consistent completions. TotalPaths
// (an empty observation), ConsistentPaths, ConsistentPathsUnindexed and
// the reconstruction engine (internal/reconstruct) all count through it.
// Build one per (traced set, observation, match mode); the memo is filled
// lazily and reused across every From query, so callers that probe many
// (state, matched) coordinates — per-step survivor counts, witness
// enumeration — pay the DP once instead of once per probe. A memo row is allocated on the first
// From query at its state, so a caller that only classifies edges with
// Step holds O(states) memory.
//
// A Counter is not safe for concurrent use: From mutates the memo.
type Counter struct {
	p        *Product
	traced   map[string]bool
	observed []flow.IndexedMsg
	mode     MatchMode
	// byName matches observed entries by message name alone, ignoring the
	// instance tag (ConsistentPathsUnindexed).
	byName bool
	isStop []bool
	// memo[u][j] = number of consistent completions from product state u
	// with j observed messages already matched. A nil row or cell marks
	// "not computed"; products of DAGs are acyclic, so the pre-publication
	// in From cannot be re-entered.
	memo [][]*big.Int
}

// NewCounter validates the observation against the traced set and prepares
// the DP. An observed message whose name is not traced is an error: the
// trace buffer cannot contain a message that was never traced.
func (p *Product) NewCounter(traced map[string]bool, observed []flow.IndexedMsg, mode MatchMode) (*Counter, error) {
	for _, m := range observed {
		if !traced[m.Name] {
			return nil, fmt.Errorf("interleave: observed message %s is not in the traced set", m)
		}
	}
	return p.newCounter(traced, observed, mode), nil
}

// newCounter is NewCounter without the observation check.
func (p *Product) newCounter(traced map[string]bool, observed []flow.IndexedMsg, mode MatchMode) *Counter {
	c := &Counter{
		p:        p,
		traced:   traced,
		observed: observed,
		mode:     mode,
		isStop:   make([]bool, p.NumStates()),
		memo:     make([][]*big.Int, p.NumStates()),
	}
	for _, s := range p.stop {
		c.isStop[s] = true
	}
	return c
}

// Observed returns the observation the counter was built over. The slice
// must not be modified.
func (c *Counter) Observed() []flow.IndexedMsg { return c.observed }

// Step classifies how an edge labeled m advances an execution that has
// matched j observed messages: the new matched count, and whether the edge
// is consistent at all. Untraced messages advance nothing; the next
// expected observed message advances the match; any other traced message
// contradicts the observation — except past the end of a Prefix-mode
// observation, where the buffer is assumed to have simply stopped
// recording.
func (c *Counter) Step(m flow.IndexedMsg, j int) (int, bool) {
	k := len(c.observed)
	switch {
	case !c.traced[m.Name]:
		return j, true
	case j < k && m.Name == c.observed[j].Name && (c.byName || m.Index == c.observed[j].Index):
		return j + 1, true
	case j == k && c.mode == Prefix:
		return j, true
	default:
		return j, false
	}
}

// From returns the number of consistent completions from product state u
// with j observed messages already matched. The returned value is shared
// with the memo and must not be modified.
func (c *Counter) From(u, j int) *big.Int {
	row := c.memo[u]
	if row == nil {
		row = make([]*big.Int, len(c.observed)+1)
		c.memo[u] = row
	}
	if got := row[j]; got != nil {
		return got
	}
	n := new(big.Int)
	row[j] = n
	if c.isStop[u] && j == len(c.observed) {
		n.SetInt64(1)
	}
	for _, e := range c.p.out[u] {
		if nj, ok := c.Step(c.p.Msg(e), j); ok {
			n.Add(n, c.From(e.To, nj))
		}
	}
	return n
}

// Total returns the number of consistent executions: completions from the
// distinct initial states with nothing matched yet.
func (c *Counter) Total() *big.Int {
	total := new(big.Int)
	seen := make(map[int]bool, len(c.p.init))
	for _, s := range c.p.init {
		if !seen[s] {
			seen[s] = true
			total.Add(total, c.From(s, 0))
		}
	}
	return total
}

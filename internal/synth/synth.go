// Package synth generates synthetic flow families for scalability studies
// and property testing: parameterized random flows (chain or DAG shaped),
// usage scenarios over them, and width distributions with packing-friendly
// subgroups. The paper's third contribution is making scalability an
// objective of the debug solution; these generators drive the sweeps that
// measure it beyond the fixed T2 and USB models.
package synth

import (
	"fmt"
	"math/rand"

	"tracescale/internal/flow"
)

// Params controls flow generation.
type Params struct {
	// States per flow (>= 2; default 5).
	States int
	// Branch is the probability of adding a skip edge alongside the chain
	// (a branching DAG instead of a pure chain). Default 0.
	Branch float64
	// MaxWidth bounds message widths (uniform in [1, MaxWidth]; default 8).
	MaxWidth int
	// GroupProb is the chance a message wider than 2 bits gets a packing
	// subgroup (default 0).
	GroupProb float64
	// IPs is the number of IP blocks messages are routed between
	// (default 4).
	IPs int
}

func (p Params) withDefaults() Params {
	if p.States == 0 {
		p.States = 5
	}
	if p.MaxWidth == 0 {
		p.MaxWidth = 8
	}
	if p.IPs == 0 {
		p.IPs = 4
	}
	return p
}

// Flow generates one random flow with the given name. Generation is
// deterministic in rng.
func Flow(name string, p Params, rng *rand.Rand) (*flow.Flow, error) {
	p = p.withDefaults()
	if p.States < 2 {
		return nil, fmt.Errorf("synth: flow needs >= 2 states, got %d", p.States)
	}
	b := flow.NewBuilder(name)
	states := make([]string, p.States)
	for i := range states {
		states[i] = fmt.Sprintf("%s_s%d", name, i)
	}
	b.States(states...)
	b.Init(states[0])
	b.Stop(states[len(states)-1])

	ip := func() string { return fmt.Sprintf("IP%d", rng.Intn(p.IPs)) }
	mkMsg := func(i int) string {
		mname := fmt.Sprintf("%s_m%d", name, i)
		width := 1 + rng.Intn(p.MaxWidth)
		m := flow.Message{Name: mname, Width: width, Src: ip(), Dst: ip()}
		if width > 2 && rng.Float64() < p.GroupProb {
			gw := 1 + rng.Intn(width-1)
			m.Groups = []flow.Group{{Name: mname + "_g", Width: gw}}
		}
		b.Message(m)
		return mname
	}
	msgID := 0
	for i := 0; i+1 < p.States; i++ {
		b.Edge(states[i], states[i+1], mkMsg(msgID))
		msgID++
		// Optional skip edge i -> i+2 for DAG shape.
		if i+2 < p.States && rng.Float64() < p.Branch {
			b.Edge(states[i], states[i+2], mkMsg(msgID))
			msgID++
		}
	}
	return b.Build()
}

// Scenario generates flows flows and one legally indexed instance of each
// (index 1). Flow names are f0, f1, ...
func Scenario(flows int, p Params, rng *rand.Rand) ([]flow.Instance, error) {
	if flows < 1 {
		return nil, fmt.Errorf("synth: need >= 1 flow, got %d", flows)
	}
	out := make([]flow.Instance, flows)
	for i := range out {
		f, err := Flow(fmt.Sprintf("f%d", i), p, rng)
		if err != nil {
			return nil, err
		}
		out[i] = flow.Instance{Flow: f, Index: 1}
	}
	return out, nil
}

// Universe generates a scenario with exactly messages distinct messages
// spread across flows chain flows (skip edges are disabled so the count is
// exact; widths and routing still follow p). A few long chains keep the
// interleaved product polynomial — roughly (messages/flows + 1)^flows
// states — while the message universe grows into the hundreds: the regime
// where exhaustive enumeration trips its MaxCandidates guard but the
// knapsack, greedy, and branch-and-bound selectors keep working.
func Universe(messages, flows int, p Params, rng *rand.Rand) ([]flow.Instance, error) {
	if flows < 1 || messages < flows {
		return nil, fmt.Errorf("synth: need >= 1 flow and >= 1 message per flow (messages %d, flows %d)", messages, flows)
	}
	out := make([]flow.Instance, flows)
	base, extra := messages/flows, messages%flows
	for i := range out {
		m := base
		if i < extra {
			m++
		}
		fp := p
		fp.States = m + 1 // a chain of n states carries n-1 messages
		fp.Branch = 0
		f, err := Flow(fmt.Sprintf("u%d", i), fp, rng)
		if err != nil {
			return nil, err
		}
		out[i] = flow.Instance{Flow: f, Index: 1}
	}
	return out, nil
}

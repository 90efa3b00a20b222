package core

import (
	"math/rand"
	"sort"

	"tracescale/internal/graph"
)

// The naive baselines quantify how much the information-gain metric buys
// over uninformed selection (the §5.3 validity argument from the other
// side): RandomBaseline draws width-feasible combinations blindly, and
// WidestFirstBaseline encodes the "big signals must matter" intuition that
// gate-level selectors implicitly follow.

// RandomBaseline returns a random width-feasible message combination:
// messages are shuffled (seeded) and added while they fit.
func RandomBaseline(e *Evaluator, budget int, seed int64) (Candidate, error) {
	order := e.universeOrder()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return e.fill(order, budget)
}

// PageRankBaseline ranks messages by PageRank over the message dependency
// graph and adds them in decreasing rank while they fit. The graph has an
// edge m1 → m2 whenever m1 is delivered into the IP that emits m2
// (m1.Dst == m2.Src): rank flows toward the messages most IPs feed into,
// the message-level analog of the PRNet signal selector (Ma et al.,
// ICCAD'15), which ranks gate-level trace candidates by PageRank over the
// netlist dependency graph. Deterministic: equal ranks tie-break on
// universe index, and rank comparison tolerates power-iteration noise via
// an epsilon.
func PageRankBaseline(e *Evaluator, budget int) (Candidate, error) {
	n := len(e.universe)
	g := graph.New(n)
	for i, a := range e.universe {
		for j, b := range e.universe {
			if i != j && a.Dst == b.Src {
				g.AddEdge(i, j)
			}
		}
	}
	rank := g.PageRank()
	order := e.universeOrder()
	const eps = 1e-12
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := rank[order[a]], rank[order[b]]
		if ra > rb+eps {
			return true
		}
		if rb > ra+eps {
			return false
		}
		return order[a] < order[b]
	})
	return e.fill(order, budget)
}

// WidestFirstBaseline adds messages in decreasing width while they fit —
// prioritizing raw signal volume over information.
func WidestFirstBaseline(e *Evaluator, budget int) (Candidate, error) {
	order := e.universeOrder()
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := e.universe[order[a]].TraceWidth(), e.universe[order[b]].TraceWidth()
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	return e.fill(order, budget)
}

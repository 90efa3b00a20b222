package core

import (
	"cmp"
	"context"
	"slices"
)

// greedyStrategy is the density-greedy selector. Candidate-free:
// KeepCandidates is rejected.
type greedyStrategy struct{}

func (greedyStrategy) Name() string { return "greedy" }

func (greedyStrategy) Select(_ context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, err := selectGreedy(e, cfg.BufferWidth)
	if err == nil {
		// One gain density per message: the sort's key.
		e.obs.Add("core.select.gain_evals", int64(len(e.universe)))
	}
	return best, nil, err
}

// selectGreedy takes messages by decreasing gain density (gain/width),
// skipping those that no longer fit; density ties keep universe order.
// Since the budget only shrinks, a skipped message never fits again, so
// each step takes the densest message that still fits.
func selectGreedy(e *Evaluator, budget int) (Candidate, error) {
	return e.fill(e.densityOrder(), budget)
}

// densityOrder returns the universe indices by gain density descending,
// stably, so density ties keep ascending universe order. Widths are at
// least 1 and gains finite, so every density is a number and the order
// is unique.
func (e *Evaluator) densityOrder() []int {
	order := e.universeOrder()
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(e.gainOf[b]/float64(e.widthOf[b]), e.gainOf[a]/float64(e.widthOf[a]))
	})
	return order
}

package core

import "context"

// greedyStrategy is the eager density-greedy selector. Sequential and
// candidate-free: KeepCandidates and Workers > 1 are rejected.
type greedyStrategy struct{}

func (greedyStrategy) Name() string { return "greedy" }

func (greedyStrategy) Capabilities() Capabilities { return Capabilities{} }

func (greedyStrategy) Select(_ context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, evals, err := selectGreedyCounted(e, cfg.BufferWidth)
	if err == nil {
		e.obs.Add("core.select.gain_evals", int64(evals))
	}
	return best, nil, err
}

// selectGreedy adds messages by decreasing gain density (gain/width),
// skipping messages that no longer fit. Ties by universe order.
func selectGreedy(e *Evaluator, budget int) (Candidate, error) {
	best, _, err := selectGreedyCounted(e, budget)
	return best, err
}

// selectGreedyCounted is the eager greedy: each round re-evaluates the
// marginal gain density of every unchosen message that still fits and takes
// the best (strictly higher density wins; ties keep the lowest universe
// index). Messages wider than the remaining budget are skipped without an
// evaluation — the budget only shrinks, so they can never fit again.
//
// This round-based formulation selects the identical Candidate to the
// classic sort-once greedy (sort by density descending, take what fits):
// at every step both take the highest-density message that fits the
// remaining budget, and an already-skipped message never becomes eligible
// again. The rounds exist to make the evaluation count explicit — evals is
// the number of density evaluations performed, which observed evaluators
// record in core.select.gain_evals.
func selectGreedyCounted(e *Evaluator, budget int) (Candidate, int, error) {
	n := len(e.universe)
	chosen := make([]bool, n)
	left := budget
	evals := 0
	any := false
	for left > 0 {
		bestAt := -1
		bestDensity := 0.0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			w := e.widthOf[i]
			if w > left {
				continue
			}
			evals++
			if d := e.gainOf[i] / float64(w); bestAt < 0 || d > bestDensity {
				bestAt, bestDensity = i, d
			}
		}
		if bestAt < 0 {
			break
		}
		chosen[bestAt] = true
		left -= e.widthOf[bestAt]
		any = true
	}
	if !any {
		return Candidate{}, evals, errNothingFits(budget)
	}
	return e.candidateFromSet(chosen), evals, nil
}

package core

import "context"

// maxCoverageStrategy is the coverage-greedy ablation selector. Sequential
// and candidate-free: KeepCandidates and Workers > 1 are rejected.
type maxCoverageStrategy struct{}

func (maxCoverageStrategy) Name() string { return "max-coverage" }

func (maxCoverageStrategy) Capabilities() Capabilities { return Capabilities{} }

func (maxCoverageStrategy) Select(_ context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, err := selectMaxCoverage(e, cfg.BufferWidth)
	return best, nil, err
}

// selectMaxCoverage greedily maximizes flow-spec coverage: each round adds
// the feasible message with the most uncovered visible states (ties by
// cheaper width, then universe order). Classic budgeted max-coverage
// greedy — a (1-1/e)-approximation since coverage is submodular.
func selectMaxCoverage(e *Evaluator, budget int) (Candidate, error) {
	n := len(e.universe)
	chosen := make([]bool, n)
	covered, cand := e.newCover(), e.newCover()
	coveredN := 0
	left := budget
	any := false
	for {
		bestAt, bestNew, bestWidth := -1, -1, 0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			w := e.widthOf[i]
			if w > left {
				continue
			}
			copy(cand, covered)
			cand.or(e.visibleOf[i])
			fresh := e.visibleStates(cand) - coveredN
			if fresh > bestNew || (fresh == bestNew && w < bestWidth) {
				bestAt, bestNew, bestWidth = i, fresh, w
			}
		}
		if bestAt < 0 {
			break
		}
		chosen[bestAt] = true
		left -= bestWidth
		any = true
		covered.or(e.visibleOf[bestAt])
		coveredN = e.visibleStates(covered)
	}
	if !any {
		return Candidate{}, errNothingFits(budget)
	}
	return e.candidateFromSet(chosen), nil
}

package core

import (
	"context"
	"math/big"

	"tracescale/internal/reconstruct"
)

// reconstructStrategy selects for debuggability directly: instead of the
// paper's mutual-information proxy, it minimizes the expected number of
// executions a reconstruction engine would still have to consider after
// observing the traced projection of a random execution. Sequential and
// candidate-free: KeepCandidates and Workers > 1 are rejected.
type reconstructStrategy struct{}

func (reconstructStrategy) Name() string { return "reconstruct" }

func (reconstructStrategy) Capabilities() Capabilities { return Capabilities{} }

func (reconstructStrategy) Select(ctx context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, evals, err := selectReconstruct(ctx, e, cfg.BufferWidth)
	if err == nil {
		e.obs.Add("core.select.ambiguity_evals", int64(evals))
	}
	return best, nil, err
}

// selectReconstruct is greedy descent on the exact pair count, spent per
// bit: each round scores every unchosen fitting message by the reduction
// in ordered-pair collision count (reconstruct.PairCount — adding a
// message refines the projection partition, so the count never rises) per
// trace bit, as an exact big.Rat, and takes the largest. Rational
// comparisons leave no epsilon; exact density ties fall back to
// information gain density (scoreEps tolerance) and then to universe
// order, keeping the selection deterministic and aligned with the MI
// objective where ambiguity cannot distinguish — including the endgame
// rounds where the traced set already disambiguates fully and every
// remaining message reduces nothing.
//
// The pair DP walks the product, so the closed-form state count is checked
// against reconstruct.MaxAmbiguityStates before the product is built.
func selectReconstruct(ctx context.Context, e *Evaluator, budget int) (Candidate, int, error) {
	if err := reconstruct.CheckAmbiguityStates(e.numStates); err != nil {
		return Candidate{}, 0, err
	}
	p := e.Product()
	n := len(e.universe)
	chosen := make([]bool, n)
	traced := make(map[string]bool, n)
	current, err := reconstruct.PairCount(p, traced)
	if err != nil {
		return Candidate{}, 0, err
	}
	left := budget
	evals := 0
	any := false
	for left > 0 {
		bestAt := -1
		var bestDensity *big.Rat
		var bestPairs *big.Int
		bestGainDensity := 0.0
		for i := 0; i < n; i++ {
			if chosen[i] || e.widthOf[i] > left {
				continue
			}
			if err := ctx.Err(); err != nil {
				return Candidate{}, evals, err
			}
			traced[e.universe[i].Name] = true
			pairs, err := reconstruct.PairCount(p, traced)
			delete(traced, e.universe[i].Name)
			if err != nil {
				return Candidate{}, evals, err
			}
			evals++
			density := new(big.Rat).SetFrac(
				new(big.Int).Sub(current, pairs),
				big.NewInt(int64(e.widthOf[i])),
			)
			gd := e.gainOf[i] / float64(e.widthOf[i])
			take := bestAt < 0
			if !take {
				switch density.Cmp(bestDensity) {
				case 1:
					take = true
				case 0:
					take = gd > bestGainDensity+scoreEps
				}
			}
			if take {
				bestAt, bestDensity, bestPairs, bestGainDensity = i, density, pairs, gd
			}
		}
		if bestAt < 0 {
			break
		}
		chosen[bestAt] = true
		traced[e.universe[bestAt].Name] = true
		left -= e.widthOf[bestAt]
		current = bestPairs
		any = true
	}
	if !any {
		return Candidate{}, evals, errNothingFits(budget)
	}
	return e.candidateFromSet(chosen), evals, nil
}

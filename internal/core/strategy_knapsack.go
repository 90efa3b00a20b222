package core

import "context"

// knapsackStrategy is the exact DP selector. It neither enumerates
// candidates nor shards: KeepCandidates and Workers > 1 are rejected.
type knapsackStrategy struct{}

func (knapsackStrategy) Name() string { return "knapsack" }

func (knapsackStrategy) Capabilities() Capabilities { return Capabilities{} }

func (knapsackStrategy) Select(_ context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, err := selectKnapsack(e, cfg.BufferWidth)
	return best, nil, err
}

// selectKnapsack solves Step 2 exactly: because gain is additive across
// messages, the max-gain feasible combination is a 0/1 knapsack with
// value = gain and weight = width. O(n × BufferWidth) DP cells, each
// carrying the exact cover bitset of its chosen set so gain ties break
// toward higher coverage — the same secondary objective better() gives the
// exhaustive reference. Without the tie-break, a degenerate universe where
// every gain is zero (e.g. a single-execution product, whose entropy is 0)
// would never strictly improve any cell and the DP would return an empty
// Candidate with no error. Item order plus strict-improvement replacement
// prefers excluding later universe messages on full ties, mirroring
// exhaustive's lowest-mask rule.
func selectKnapsack(e *Evaluator, budget int) (Candidate, error) {
	n := len(e.universe)
	// dp[c] = best (gain, coverage) using total width ≤ c. cov holds the
	// exact visible-state union of the set behind the cell and covN its
	// visible product states — coverage is not additive, so the tie-break
	// needs the real union, not a per-item sum.
	type cell struct {
		gain float64
		covN int
		cov  bitset
	}
	dp := make([]cell, budget+1)
	for c := range dp {
		dp[c].cov = e.newCover()
	}
	cand := e.newCover()
	take := make([][]bool, n)
	feasible := false
	for i := 0; i < n; i++ {
		take[i] = make([]bool, budget+1)
		w := e.widthOf[i]
		if w > budget {
			continue
		}
		feasible = true
		g := e.gainOf[i]
		for c := budget; c >= w; c-- {
			prev := &dp[c-w]
			candGain := prev.gain + g
			if candGain < dp[c].gain-1e-15 {
				continue
			}
			copy(cand, prev.cov)
			cand.or(e.visibleOf[i])
			candCovN := e.visibleStates(cand)
			if candGain > dp[c].gain+1e-15 || candCovN > dp[c].covN {
				dp[c] = cell{gain: candGain, covN: candCovN, cov: cand.clone()}
				take[i][c] = true
			}
		}
	}
	if !feasible {
		return Candidate{}, errNothingFits(budget)
	}
	// Recover the chosen set.
	chosen := make([]bool, n)
	c := budget
	any := false
	for i := n - 1; i >= 0; i-- {
		if take[i][c] {
			chosen[i] = true
			c -= e.widthOf[i]
			any = true
		}
	}
	if !any {
		// Every feasible message scored (0 gain, 0 fresh coverage): the
		// exhaustive scan would still return its first feasible mask, so
		// mirror that with the lowest-index fitting message.
		for i := 0; i < n; i++ {
			if e.widthOf[i] <= budget {
				chosen[i] = true
				break
			}
		}
	}
	return e.candidateFromSet(chosen), nil
}

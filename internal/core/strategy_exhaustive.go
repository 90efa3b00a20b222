package core

import (
	"context"
	"fmt"
	"math/bits"
)

// exhaustiveStrategy is the paper's reference search: enumerate every
// width-feasible mask. The only strategy that can retain all candidates
// (KeepCandidates) — the others never materialize the full candidate set.
type exhaustiveStrategy struct{}

func (exhaustiveStrategy) Name() string { return "exhaustive" }

func (exhaustiveStrategy) Capabilities() Capabilities {
	return Capabilities{KeepCandidates: true}
}

func (exhaustiveStrategy) Select(ctx context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	return selectExhaustive(ctx, e, cfg)
}

// scanMasks enumerates masks in [lo, hi), keeping the incumbent-best under
// betterScored (ascending scan, so the lowest tied mask wins) and, when
// keep is set, every feasible candidate in mask order. betterScored reads
// coverage only when the gains tie within scoreEps, so coverage is scored
// only for contenders — masks whose gain reaches the incumbent's band —
// and for every mask when keep asks for all candidates. The scratch cover
// bitset vis is reused across masks; found reports whether any mask in the
// range was width-feasible. The loop carries no counters beyond the
// incumbent — even a single extra increment here is measurable — so the
// observability layer derives the feasible-mask count arithmetically
// (countFeasible) instead of tallying it in the scan, and cancellation is
// polled only at chunk boundaries (every cancelCheckMasks masks), keeping
// the inner loop byte-identical to the uncancellable original. A non-nil
// err means the scan aborted on ctx and the partial results are invalid.
func (e *Evaluator) scanMasks(ctx context.Context, lo, hi uint64, budget int, keep bool) (best scored, found bool, all []Candidate, err error) {
	vis := e.newCover()
	for chunkLo := lo; chunkLo < hi; chunkLo += cancelCheckMasks {
		if err := ctx.Err(); err != nil {
			return scored{}, false, nil, err
		}
		chunkHi := chunkLo + cancelCheckMasks
		if chunkHi > hi || chunkHi < chunkLo { // clamp, and guard uint64 wrap
			chunkHi = hi
		}
		//lint:ignore ctxflow cancellation is polled at the chunk boundary above; the chunk loop is deliberately poll-free to stay byte-identical to the uncancellable scan
		for mask := chunkLo; mask < chunkHi; mask++ {
			width := 0
			for m := mask; m != 0; m &= m - 1 {
				width += e.widthOf[bits.TrailingZeros64(m)]
			}
			if width > budget {
				continue
			}
			gain := 0.0
			for m := mask; m != 0; m &= m - 1 {
				gain += e.gainOf[bits.TrailingZeros64(m)]
			}
			c := scored{mask: mask, width: width, gain: gain}
			if keep || !found || gain >= best.gain-scoreEps {
				vis.clear()
				for m := mask; m != 0; m &= m - 1 {
					vis.or(e.visibleOf[bits.TrailingZeros64(m)])
				}
				c.coverage = e.coverage(vis)
			}
			if keep {
				all = append(all, e.candidateFromScored(c))
			}
			if !found || betterScored(c, best) {
				best = c
				found = true
			}
		}
	}
	return best, found, all, nil
}

// countFeasible returns how many nonempty message subsets have total trace
// width within budget — the exact number of masks scanMasks scores rather
// than prunes. Subset-sum counting over the width multiset, O(n × budget),
// keeps the enumeration loop itself free of bookkeeping; only observed
// Selects run it, next to the 2^n scan it describes. The count fits int64
// because exhaustive enumeration is capped at MaxCandidates masks total.
func (e *Evaluator) countFeasible(budget int) int64 {
	dp := make([]int64, budget+1)
	dp[0] = 1
	for _, w := range e.widthOf {
		if w > budget {
			continue
		}
		for c := budget; c >= w; c-- {
			dp[c] += dp[c-w]
		}
	}
	var total int64
	for _, n := range dp {
		total += n
	}
	total-- // the empty subset is never enumerated
	return total
}

// candidateFromScored materializes the Candidate for a scored mask.
func (e *Evaluator) candidateFromScored(s scored) Candidate {
	c := Candidate{Width: s.width, Gain: s.gain, Coverage: s.coverage}
	for m := s.mask; m != 0; m &= m - 1 {
		c.Messages = append(c.Messages, e.universe[bits.TrailingZeros64(m)].Name)
	}
	return c
}

// errTooManyMasks is the MaxCandidates guard both exhaustive bail-outs
// share: the mask space cannot be enumerated, so the caller should switch
// to a strategy that never materializes it.
func errTooManyMasks(n, maxCandidates int) error {
	return fmt.Errorf("core: 2^%d combinations exceed MaxCandidates=%d; use Knapsack or BranchBound", n, maxCandidates)
}

// selectExhaustive is Steps 1-2 as written in the paper: enumerate every
// message combination with total width within the buffer, score each, keep
// the best. One ascending scan on the caller's goroutine covers the mask
// space [1, 2^n), so equal-score candidates keep the lowest mask — the
// tie-break that reproduces the paper's choice of {ReqE, GntE} among the
// toy example's three gain-tied pairs.
//
// Cancelling ctx aborts the scan at its next poll boundary, and
// SelectContext returns ctx's error: a cancelled selection never leaks a
// half-scanned result.
func selectExhaustive(ctx context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	n := len(e.universe)
	if n >= 63 {
		// 2^63 overflows the mask arithmetic; the guard message is the same
		// one the MaxCandidates bound produces, since no representable
		// MaxCandidates admits a 63-message enumeration either.
		return Candidate{}, nil, errTooManyMasks(n, cfg.MaxCandidates)
	}
	end := uint64(1) << n
	if end > uint64(cfg.MaxCandidates) {
		return Candidate{}, nil, errTooManyMasks(n, cfg.MaxCandidates)
	}
	best, found, all, err := e.scanMasks(ctx, 1, end, cfg.BufferWidth, cfg.KeepCandidates)
	if err != nil {
		return Candidate{}, nil, err
	}
	if reg := e.obs; reg != nil {
		enumerated := int64(end - 1)
		feasible := e.countFeasible(cfg.BufferWidth)
		reg.Add("core.select.masks_enumerated", enumerated)
		reg.Add("core.select.masks_feasible", feasible)
		reg.Add("core.select.masks_pruned", enumerated-feasible)
	}
	if !found {
		return Candidate{}, nil, errNothingFits(cfg.BufferWidth)
	}
	return e.candidateFromScored(best), all, nil
}

package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
)

// exhaustiveStrategy is the paper's reference search: enumerate every
// width-feasible mask. The only strategy that can retain all candidates
// (KeepCandidates) — the others never materialize the full candidate set.
type exhaustiveStrategy struct{}

func (exhaustiveStrategy) Name() string { return "exhaustive" }

func (exhaustiveStrategy) Capabilities() Capabilities {
	return Capabilities{KeepCandidates: true, Workers: true}
}

func (exhaustiveStrategy) Select(ctx context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	return selectExhaustive(ctx, e, cfg)
}

// scanMasks enumerates masks in [lo, hi), keeping the incumbent-best under
// the better predicate (ascending scan, so the lowest tied mask wins) and,
// when keep is set, every feasible candidate in mask order. better reads
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
// keeps the enumeration loop itself free of bookkeeping. The count is a
// pure function of the evaluator's width multiset, so it is memoized per
// budget: repeat observed Selects at one budget pay a map lookup, not the
// DP (core.select.feasible_dp_runs counts the actual DP executions). The
// count fits int64 because exhaustive enumeration is capped at
// MaxCandidates masks total.
func (e *Evaluator) countFeasible(budget int) int64 {
	e.feasibleMu.Lock()
	defer e.feasibleMu.Unlock()
	if total, ok := e.feasibleBy[budget]; ok {
		return total
	}
	e.obs.Counter("core.select.feasible_dp_runs").Inc()
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
	e.feasibleBy[budget] = total
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

// exhaustiveShard is one mask range's scan outcome: the range's incumbent,
// when KeepCandidates asks for them its feasible candidates in mask order,
// and the context error that aborted the scan, if any.
type exhaustiveShard struct {
	best  scored
	found bool
	all   []Candidate
	err   error
}

// mergeExhaustiveShards folds shard outcomes in ascending range order under
// the serial incumbent rule: strictly better wins, full ties keep the
// lowest mask. Candidates concatenate in the same order, which is the
// serial scan's mask order.
func mergeExhaustiveShards(shards []exhaustiveShard) (best scored, found bool, all []Candidate) {
	for _, s := range shards {
		if !s.found {
			continue
		}
		if !found || betterScored(s.best, best) || (tieScored(s.best, best) && s.best.mask < best.mask) {
			best = s.best
			found = true
		}
		all = append(all, s.all...)
	}
	return best, found, all
}

// selectExhaustive is Steps 1-2 as written in the paper: enumerate every
// message combination with total width within the buffer, score each, keep
// the best. The mask space [1, 2^n) is split into contiguous ascending
// ranges, one per worker, each scanned by scanMasks on its own goroutine;
// per-range incumbents are merged in range order with the serial scan's
// exact tie-breaks (equal-score candidates keep the lowest mask), so any
// worker count selects a byte-identical result. The lowest-mask tie-break
// is what reproduces the paper's choice of {ReqE, GntE} among the toy
// example's three gain-tied pairs. pprof labels attribute each shard's
// CPU samples to its range.
//
// Cancelling ctx makes every range scan abort at its next poll boundary;
// the join then discards the partial incumbents and returns ctx's error,
// so a cancelled selection never leaks a half-scanned result. Aborted
// shards are tallied in core.select.shards_cancelled on observed
// evaluators.
func selectExhaustive(ctx context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	n := len(e.universe)
	if n >= 63 {
		// 2^63 overflows the mask arithmetic; the guard message is the same
		// one the MaxCandidates bound produces, since no representable
		// MaxCandidates admits a 63-message enumeration either.
		return Candidate{}, nil, errTooManyMasks(n, cfg.MaxCandidates)
	}
	if total := uint64(1) << n; total > uint64(cfg.MaxCandidates) {
		return Candidate{}, nil, errTooManyMasks(n, cfg.MaxCandidates)
	}
	end := uint64(1) << n
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Below ~2^16 masks the scan is microseconds; goroutine fan-out
		// would cost more than it saves. An explicit Workers count is
		// honored regardless (tests force the parallel path this way).
		const minParallelMasks = 1 << 16
		if end-1 < minParallelMasks {
			workers = 1
		}
	}
	if uint64(workers) > end-1 {
		workers = int(end - 1)
	}

	shards := make([]exhaustiveShard, workers)
	span := (end - 1) / uint64(workers)
	scan := func(ctx context.Context, w int) {
		lo := 1 + uint64(w)*span
		hi := lo + span
		if w == workers-1 {
			hi = end
		}
		s := &shards[w]
		s.best, s.found, s.all, s.err = e.scanMasks(ctx, lo, hi, cfg.BufferWidth, cfg.KeepCandidates)
	}
	if workers == 1 {
		scan(ctx, 0)
	} else {
		var wg sync.WaitGroup
		for w := range shards {
			wg.Add(1)
			go pprof.Do(ctx,
				pprof.Labels("tracescale.pool", "select-exhaustive", "tracescale.shard", strconv.Itoa(w)),
				func(ctx context.Context) {
					defer wg.Done()
					scan(ctx, w)
				})
		}
		wg.Wait()
	}
	var aborted int64
	for _, s := range shards {
		if s.err != nil {
			aborted++
		}
	}
	if aborted > 0 {
		// scanMasks fails only on ctx, so ctx.Err() is that error.
		if reg := e.obs; reg != nil {
			reg.Add("core.select.shards_cancelled", aborted)
		}
		return Candidate{}, nil, ctx.Err()
	}
	best, found, all := mergeExhaustiveShards(shards)
	if reg := e.obs; reg != nil {
		enumerated := int64(end - 1)
		feasible := e.countFeasible(cfg.BufferWidth)
		reg.Add("core.select.masks_enumerated", enumerated)
		reg.Add("core.select.masks_feasible", feasible)
		reg.Add("core.select.masks_pruned", enumerated-feasible)
		reg.Gauge("core.select.workers").Set(int64(workers))
	}
	if !found {
		return Candidate{}, nil, errNothingFits(cfg.BufferWidth)
	}
	return e.candidateFromScored(best), all, nil
}

package core

import (
	"context"
	"fmt"
	"math/bits"
)

// branchBoundStrategy is the exact lattice search. It never materializes
// the candidate set, so KeepCandidates is rejected.
type branchBoundStrategy struct{}

func (branchBoundStrategy) Name() string { return "branch-bound" }

func (branchBoundStrategy) Select(ctx context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, err := selectBranchBound(ctx, e, cfg)
	return best, nil, err
}

// wideScored is scored with a multi-word mask, so BranchBound identifies
// candidates in universes past the exhaustive scan's 63-message uint64
// ceiling. The mask indexes universe positions (bit i = universe[i]).
type wideScored struct {
	mask  bitset
	width int
	score
}

// bbSearch is one branch-and-bound search: the gain-density order and
// budget it explores, the DFS path mask, a rescoring scratch bitset, the
// incumbent, and the node count.
type bbSearch struct {
	e      *Evaluator
	order  []int // universe indices, gain density descending, index ascending
	budget int
	// maxNodes caps the search nodes (= feasible subsets visited) —
	// Config.MaxCandidates repurposed: where exhaustive refuses mask spaces
	// it cannot enumerate, branch-and-bound refuses searches whose pruning
	// is not biting. It never fails where exhaustive would have succeeded,
	// because nodes never exceed the feasible-subset count, which is
	// < 2^n ≤ MaxCandidates whenever exhaustive runs at all.
	maxNodes int64
	path     bitset
	vis      bitset
	best     wideScored
	found    bool
	nodes    int64
}

// bound is the fractional-knapsack upper bound on the total gain any
// completion drawn from order[pos:] can add to a partial selection with
// left budget bits free: fill by density descending (the order slice's
// order), taking the first overflowing message fractionally — the LP
// relaxation of the remaining subproblem, so no 0/1 completion beats it.
// Gains are non-negative (each is a scaled KL divergence), which the fill
// argument needs. Removing the densest remaining message never raises the
// LP optimum, so the bound is non-increasing in pos at fixed left — the
// property that lets a caller stop scanning siblings once one is pruned.
func (s *bbSearch) bound(pos, left int) float64 {
	b := 0.0
	for j := pos; j < len(s.order) && left > 0; j++ {
		i := s.order[j]
		w := s.e.widthOf[i]
		if w <= left {
			b += s.e.gainOf[i]
			left -= w
		} else {
			b += s.e.gainOf[i] * float64(left) / float64(w)
			break
		}
	}
	return b
}

// consider canonically rescores the current path and challenges the
// incumbent. The path's running gain accumulates in DFS (density) order;
// float addition is not associative, so the score that competes — and is
// ultimately returned — is recomputed here in ascending universe order,
// bit-for-bit the summation order the exhaustive scanMasks uses. The
// incumbent rule is the exhaustive merge's: strictly better wins, full
// ties keep the lowest mask.
func (s *bbSearch) consider() {
	width := 0
	for wd, word := range s.path {
		for m := word; m != 0; m &= m - 1 {
			width += s.e.widthOf[wd*64+bits.TrailingZeros64(m)]
		}
	}
	gain := 0.0
	s.vis.clear()
	for wd, word := range s.path {
		for m := word; m != 0; m &= m - 1 {
			i := wd*64 + bits.TrailingZeros64(m)
			gain += s.e.gainOf[i]
			s.vis.or(s.e.visibleOf[i])
		}
	}
	c := wideScored{width: width, score: score{gain: gain, coverage: s.e.coverage(s.vis)}}
	// The third clause runs only when c does not beat the incumbent, so
	// "the incumbent does not beat c either" is a full tie.
	if !s.found || c.beats(s.best.score) || (!s.best.beats(c.score) && s.path.less(s.best.mask)) {
		c.mask = s.path.clone()
		s.best = c
		s.found = true
	}
}

// branch explores the subtree whose next pick is order[j], extending a
// partial selection of the given width and running gain. Infeasible picks
// return immediately (and cost no node); feasible picks are themselves
// candidates, challenged against the incumbent before recursing.
func (s *bbSearch) branch(ctx context.Context, j, width int, pathGain float64) error {
	i := s.order[j]
	wd := s.e.widthOf[i]
	if width+wd > s.budget {
		return nil
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		return fmt.Errorf("core: branch-and-bound explored over MaxCandidates=%d nodes without converging; raise MaxCandidates", s.maxNodes)
	}
	if s.nodes&(cancelCheckMasks-1) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	s.path.set(i)
	candGain := pathGain + s.e.gainOf[i]
	// Rescore only contenders: a path whose running gain is already below
	// the incumbent by more than the tie tolerance cannot replace it (the
	// running/canonical float difference is ~ulps, far inside scoreEps).
	if !s.found || candGain > s.best.gain-scoreEps {
		s.consider()
	}
	err := s.dfs(ctx, j+1, width+wd, candGain)
	s.path.unset(i)
	return err
}

// dfs extends the current partial selection with every order position ≥
// pos, pruning on the fractional bound. The bound is non-increasing in
// position (see bound), so the first pruned sibling prunes all that
// follow.
func (s *bbSearch) dfs(ctx context.Context, pos, width int, pathGain float64) error {
	left := s.budget - width
	for j := pos; j < len(s.order); j++ {
		if s.found && pathGain+s.bound(j, left) < s.best.gain-scoreEps {
			return nil
		}
		if err := s.branch(ctx, j, width, pathGain); err != nil {
			return err
		}
	}
	return nil
}

// newBBSearch builds a search over e: the gain-density order (stable, so
// density ties keep ascending universe order), the budget and node cap,
// and empty path and scratch bitsets.
func newBBSearch(e *Evaluator, budget int, maxNodes int64) *bbSearch {
	return &bbSearch{
		e:        e,
		order:    e.densityOrder(),
		budget:   budget,
		maxNodes: maxNodes,
		path:     newBitset(len(e.universe)),
		vis:      e.newCover(),
	}
}

// selectBranchBound is the exact Step-2 search without the 2^n sweep:
// depth-first over the message lattice in gain-density order (each subset
// visited at most once: a node's children extend it with strictly later
// order positions), upper-bounding every partial selection's best
// completion by the fractional-knapsack relaxation and pruning below the
// incumbent. The first path explored is exactly the greedy solution, so
// the incumbent is strong immediately and pruning bites from the start.
//
// Equivalence with exhaustive: pruning discards only subtrees whose every
// completion scores below the incumbent by more than the tie tolerance,
// and the incumbent rule (strictly better wins, ties keep the lowest
// universe-order mask) is the same order-independent comparator the
// exhaustive merge applies — so the surviving winner is the exhaustive
// winner, byte for byte, wherever exhaustive is feasible. The
// differential suite pins this.
func selectBranchBound(ctx context.Context, e *Evaluator, cfg Config) (Candidate, error) {
	n := len(e.universe)
	anyFits := false
	for i := 0; i < n && !anyFits; i++ {
		anyFits = e.widthOf[i] <= cfg.BufferWidth
	}
	if !anyFits {
		return Candidate{}, errNothingFits(cfg.BufferWidth)
	}

	s := newBBSearch(e, cfg.BufferWidth, int64(cfg.MaxCandidates))
	if err := s.dfs(ctx, 0, 0, 0); err != nil {
		return Candidate{}, err
	}
	if reg := e.obs; reg != nil {
		reg.Add("core.select.bb_nodes", s.nodes)
	}
	if !s.found {
		// Unreachable given anyFits, but kept as a defensive parity with
		// the other strategies' infeasibility contract.
		return Candidate{}, errNothingFits(cfg.BufferWidth)
	}
	return e.candidate(s.best.mask, s.best.width, s.best.score), nil
}

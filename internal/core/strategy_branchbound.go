package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
)

// branchBoundStrategy is the exact lattice search. It shards its root
// branches across Workers but never materializes the candidate set, so
// KeepCandidates is rejected.
type branchBoundStrategy struct{}

func (branchBoundStrategy) Name() string { return "branch-bound" }

func (branchBoundStrategy) Capabilities() Capabilities { return Capabilities{Workers: true} }

func (branchBoundStrategy) Select(ctx context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, err := selectBranchBound(ctx, e, cfg)
	return best, nil, err
}

// wideScored is scored with a multi-word mask, so BranchBound identifies
// candidates in universes past the exhaustive scan's 63-message uint64
// ceiling. The mask indexes universe positions (bit i = universe[i]).
type wideScored struct {
	mask     bitset
	width    int
	gain     float64
	coverage float64
}

// wideBetter is betterScored on multi-word-mask candidates.
func wideBetter(a, b wideScored) bool {
	if a.gain > b.gain+scoreEps {
		return true
	}
	if a.gain < b.gain-scoreEps {
		return false
	}
	return a.coverage > b.coverage+scoreEps
}

// wideTie is tieScored on multi-word-mask candidates.
func wideTie(a, b wideScored) bool {
	return !wideBetter(a, b) && !wideBetter(b, a)
}

// candidateFromWide materializes the Candidate for a wide mask, message
// names in ascending universe order (the same order candidateFromScored
// produces).
func (e *Evaluator) candidateFromWide(s wideScored) Candidate {
	c := Candidate{Width: s.width, Gain: s.gain, Coverage: s.coverage}
	for w, word := range s.mask {
		for m := word; m != 0; m &= m - 1 {
			c.Messages = append(c.Messages, e.universe[w*64+bits.TrailingZeros64(m)].Name)
		}
	}
	return c
}

// bbSearch is the read-only state every branch-and-bound worker shares.
type bbSearch struct {
	e      *Evaluator
	order  []int // universe indices, gain density descending, index ascending
	budget int
	// maxNodes caps the search nodes (= feasible subsets visited) per
	// worker — Config.MaxCandidates repurposed: where exhaustive refuses
	// mask spaces it cannot enumerate, branch-and-bound refuses searches
	// whose pruning is not biting. The cap is per worker, so a sharded run
	// may finish a search a serial run would refuse; it never fails where
	// exhaustive would have succeeded, because nodes never exceed the
	// feasible-subset count, which is < 2^n ≤ MaxCandidates whenever
	// exhaustive runs at all.
	maxNodes int64
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

// bbWorker is one worker's mutable search state: the DFS path mask, a
// rescoring scratch bitset, the local incumbent, and the node count.
// Workers share nothing mutable, so a sharded search is deterministic and
// race-free by construction; local (rather than shared) incumbents only
// cost pruning power, never correctness, because pruning below any
// incumbent discards only candidates that could not win anyway.
type bbWorker struct {
	s     *bbSearch
	path  bitset
	vis   bitset
	best  wideScored
	found bool
	nodes int64
}

// consider canonically rescores the current path and challenges the
// incumbent. The path's running gain accumulates in DFS (density) order;
// float addition is not associative, so the score that competes — and is
// ultimately returned — is recomputed here in ascending universe order,
// bit-for-bit the summation order the exhaustive scanMasks uses. The
// incumbent rule is the exhaustive merge's: strictly better wins, full
// ties keep the lowest mask.
func (w *bbWorker) consider() {
	width := 0
	for wd, word := range w.path {
		for m := word; m != 0; m &= m - 1 {
			width += w.s.e.widthOf[wd*64+bits.TrailingZeros64(m)]
		}
	}
	gain := 0.0
	w.vis.clear()
	for wd, word := range w.path {
		for m := word; m != 0; m &= m - 1 {
			i := wd*64 + bits.TrailingZeros64(m)
			gain += w.s.e.gainOf[i]
			w.vis.or(w.s.e.visibleOf[i])
		}
	}
	c := wideScored{width: width, gain: gain, coverage: w.s.e.coverage(w.vis)}
	if !w.found || wideBetter(c, w.best) || (wideTie(c, w.best) && w.path.less(w.best.mask)) {
		c.mask = w.path.clone()
		w.best = c
		w.found = true
	}
}

// branch explores the subtree whose next pick is order[j], extending a
// partial selection of the given width and running gain. Infeasible picks
// return immediately (and cost no node); feasible picks are themselves
// candidates, challenged against the incumbent before recursing.
func (w *bbWorker) branch(ctx context.Context, j, width int, pathGain float64) error {
	s := w.s
	i := s.order[j]
	wd := s.e.widthOf[i]
	if width+wd > s.budget {
		return nil
	}
	w.nodes++
	if w.nodes > s.maxNodes {
		return fmt.Errorf("core: branch-and-bound explored over MaxCandidates=%d nodes without converging; raise MaxCandidates", s.maxNodes)
	}
	if w.nodes&(cancelCheckMasks-1) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	w.path.set(i)
	candGain := pathGain + s.e.gainOf[i]
	// Rescore only contenders: a path whose running gain is already below
	// the incumbent by more than the tie tolerance cannot replace it (the
	// running/canonical float difference is ~ulps, far inside scoreEps).
	if !w.found || candGain > w.best.gain-scoreEps {
		w.consider()
	}
	err := w.dfs(ctx, j+1, width+wd, candGain)
	w.path.unset(i)
	return err
}

// dfs extends the current partial selection with every order position ≥
// pos, pruning on the fractional bound. The bound is non-increasing in
// position (see bound), so the first pruned sibling prunes all that
// follow.
func (w *bbWorker) dfs(ctx context.Context, pos, width int, pathGain float64) error {
	s := w.s
	left := s.budget - width
	for j := pos; j < len(s.order); j++ {
		if w.found && pathGain+s.bound(j, left) < w.best.gain-scoreEps {
			return nil
		}
		if err := w.branch(ctx, j, width, pathGain); err != nil {
			return err
		}
	}
	return nil
}

// run explores every subtree rooted at order position start, start+stride,
// ... — the round-robin sharding selectBranchBound assigns. Root bounds
// are non-increasing along order too, so the worker stops at its first
// pruned root.
func (w *bbWorker) run(ctx context.Context, start, stride int) error {
	s := w.s
	for j := start; j < len(s.order); j += stride {
		if w.found && s.bound(j, s.budget) < w.best.gain-scoreEps {
			return nil
		}
		if err := w.branch(ctx, j, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// newBBSearch builds the shared read-only search state: the gain-density
// order (stable, so density ties keep ascending universe order) and the
// budget/node-cap parameters.
func newBBSearch(e *Evaluator, budget int, maxNodes int64) *bbSearch {
	n := len(e.universe)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da := e.gainOf[order[a]] / float64(e.widthOf[order[a]])
		db := e.gainOf[order[b]] / float64(e.widthOf[order[b]])
		return da > db
	})
	return &bbSearch{
		e:        e,
		order:    order,
		budget:   budget,
		maxNodes: maxNodes,
	}
}

// mergeBranchBound folds the workers' incumbents in ascending root order
// with the full comparator — strictly better wins, full ties keep the
// lowest universe-order mask — and sums their node counts. Root deals are
// interleaved, so unlike the exhaustive ranges the lowest-mask tie-break
// does real work here.
func mergeBranchBound(workers []*bbWorker) (best wideScored, found bool, nodes int64) {
	for _, w := range workers {
		nodes += w.nodes
		if !w.found {
			continue
		}
		if !found || wideBetter(w.best, best) || (wideTie(w.best, best) && w.best.mask.less(best.mask)) {
			best = w.best
			found = true
		}
	}
	return best, found, nodes
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
// differential suite pins this, Workers 1 and 4, under -race.
//
// Workers deal root branches round-robin — worker w explores roots w,
// w+workers, ... on its own goroutine, with its own incumbent and path
// state over the shared read-only search — and the merge applies the full
// comparator in ascending worker order, so any worker count selects a
// byte-identical result.
func selectBranchBound(ctx context.Context, e *Evaluator, cfg Config) (Candidate, error) {
	n := len(e.universe)
	anyFits := false
	for i := 0; i < n && !anyFits; i++ {
		anyFits = e.widthOf[i] <= cfg.BufferWidth
	}
	if !anyFits {
		return Candidate{}, errNothingFits(cfg.BufferWidth)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Small universes finish in microseconds serially; fan-out would
		// cost more than it saves. An explicit Workers count is honored
		// regardless (tests force the parallel path this way).
		const minParallelMessages = 24
		if n < minParallelMessages {
			workers = 1
		}
	}
	if workers > n {
		workers = n
	}

	s := newBBSearch(e, cfg.BufferWidth, int64(cfg.MaxCandidates))
	ws := make([]*bbWorker, workers)
	for i := range ws {
		ws[i] = &bbWorker{s: s, path: newBitset(n), vis: e.newCover()}
	}
	err := runShards(ctx, e, workers, "select-branch-bound", func(ctx context.Context, i int) error {
		return ws[i].run(ctx, i, workers)
	})
	if err != nil {
		return Candidate{}, err
	}
	best, found, nodes := mergeBranchBound(ws)
	if reg := e.obs; reg != nil {
		reg.Add("core.select.bb_nodes", nodes)
		reg.Gauge("core.select.workers").Set(int64(workers))
	}
	if !found {
		// Unreachable given anyFits, but kept as a defensive parity with
		// the other strategies' infeasibility contract.
		return Candidate{}, errNothingFits(cfg.BufferWidth)
	}
	return e.candidateFromWide(best), nil
}

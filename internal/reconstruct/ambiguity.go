package reconstruct

import (
	"fmt"
	"math/big"
	"sort"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// MaxAmbiguityStates bounds the pairwise DP: it walks pairs of product
// states, so its table is quadratic in the state count. The T2 products
// top out at a few hundred states; past this limit the exact expectation
// is refused rather than silently approximated.
const MaxAmbiguityStates = 1024

// CheckAmbiguityStates reports whether a product of n states is within
// MaxAmbiguityStates, with the error PairCount returns when it is not —
// so a caller that knows n in closed form can refuse before building the
// product.
func CheckAmbiguityStates(n int) error {
	if n > MaxAmbiguityStates {
		return fmt.Errorf("reconstruct: %d states exceeds the %d-state ambiguity limit", n, MaxAmbiguityStates)
	}
	return nil
}

// PairCount returns the number of ordered pairs of executions whose
// projections onto the traced set are equal. Dividing by TotalPaths gives
// the expected reconstruction ambiguity: how many executions a debugger
// must still consider, on average, after observing the trace a uniformly
// random execution leaves behind. Tracing nothing gives TotalPaths²
// (every pair collides); a traced set that fully disambiguates gives
// exactly TotalPaths (only the diagonal pairs remain).
//
// The count is exact: a DP over state pairs synchronized on the next
// traced message, with untraced runs folded into closure counts, so no
// path enumeration and no floating point.
func PairCount(p *interleave.Product, traced map[string]bool) (*big.Int, error) {
	n := p.NumStates()
	if err := CheckAmbiguityStates(n); err != nil {
		return nil, err
	}
	// stopTail.From(u, 0): completions from u whose projection is empty
	// (untraced edges only, ending at a stop state) — the Counter over an
	// empty exact observation.
	stopTail, err := p.NewCounter(traced, nil, interleave.Exact)
	if err != nil {
		return nil, err
	}

	// closure[u]: for each (first traced message m, landing state w), the
	// number of ways to run untraced edges from u and then cross a traced
	// edge labeled m into w. Grouped by m for the synchronized product.
	type landing struct {
		w int
		c *big.Int
	}
	closure := make([]map[flow.IndexedMsg][]landing, n)
	var closureOf func(u int) map[flow.IndexedMsg][]landing
	closureOf = func(u int) map[flow.IndexedMsg][]landing {
		if cl := closure[u]; cl != nil {
			return cl
		}
		acc := make(map[flow.IndexedMsg]map[int]*big.Int)
		bump := func(m flow.IndexedMsg, w int, c *big.Int) {
			byW := acc[m]
			if byW == nil {
				byW = make(map[int]*big.Int)
				acc[m] = byW
			}
			if got := byW[w]; got != nil {
				got.Add(got, c)
			} else {
				byW[w] = new(big.Int).Set(c)
			}
		}
		one := big.NewInt(1)
		for _, e := range p.Out(u) {
			m := p.Msg(e)
			if traced[m.Name] {
				bump(m, e.To, one)
			} else {
				for cm, landings := range closureOf(e.To) {
					for _, l := range landings {
						bump(cm, l.w, l.c)
					}
				}
			}
		}
		cl := make(map[flow.IndexedMsg][]landing, len(acc))
		for m, byW := range acc {
			ls := make([]landing, 0, len(byW))
			for w, c := range byW {
				ls = append(ls, landing{w, c})
			}
			sort.Slice(ls, func(a, b int) bool { return ls[a].w < ls[b].w })
			cl[m] = ls
		}
		closure[u] = cl
		return cl
	}

	// f[u][v]: ordered pairs of completions from (u, v) with equal
	// projections — decompose each pair by its shared first traced
	// message, or by both sides draining untraced to a stop.
	pair := make(map[[2]int]*big.Int)
	var f func(u, v int) *big.Int
	f = func(u, v int) *big.Int {
		key := [2]int{u, v}
		if c := pair[key]; c != nil {
			return c
		}
		c := new(big.Int).Mul(stopTail.From(u, 0), stopTail.From(v, 0))
		pair[key] = c // every recursive step crosses a traced edge on both sides: no re-entrancy
		term := new(big.Int)
		for m, lu := range closureOf(u) {
			lv, ok := closureOf(v)[m]
			if !ok {
				continue
			}
			for _, a := range lu {
				for _, b := range lv {
					term.Mul(a.c, b.c)
					term.Mul(term, f(a.w, b.w))
					c.Add(c, term)
				}
			}
		}
		return c
	}

	total := new(big.Int)
	seen := make(map[int]bool, len(p.Init()))
	inits := make([]int, 0, len(p.Init()))
	for _, s := range p.Init() {
		if !seen[s] {
			seen[s] = true
			inits = append(inits, s)
		}
	}
	for _, u := range inits {
		for _, v := range inits {
			total.Add(total, f(u, v))
		}
	}
	return total, nil
}

// ExpectedAmbiguity is PairCount over TotalPaths as a float64: the mean
// number of executions consistent with a random execution's projection.
// It ranges from 1 (perfect disambiguation) to TotalPaths (blind).
func ExpectedAmbiguity(p *interleave.Product, traced map[string]bool) (float64, error) {
	pairs, err := PairCount(p, traced)
	if err != nil {
		return 0, err
	}
	total := p.TotalPaths()
	if total.Sign() == 0 {
		return 0, fmt.Errorf("reconstruct: interleaved flow has no executions")
	}
	f, _ := new(big.Rat).SetFrac(pairs, total).Float64()
	return f, nil
}

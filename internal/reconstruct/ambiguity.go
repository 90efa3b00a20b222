package reconstruct

import (
	"fmt"
	"math/big"
	"slices"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// MaxAmbiguityStates bounds PairCount's product: its pair memo holds a
// cell per pair of states the DP visits, and at worst that is every pair
// of landing states. The T2 products top out at a few hundred states;
// past this limit the exact expectation is refused rather than silently
// approximated.
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
// path enumeration and no floating point. Each call adds 1 to
// reconstruct.pair.counts, and the number of pair and partner-sum memo
// entries it filled to reconstruct.pair.cells and reconstruct.pair.sums,
// in the product's registry.
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
	d := newPairDP(p, traced, stopTail)
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
			total.Add(total, d.f(u, v))
		}
	}
	if reg := p.Obs(); reg != nil {
		reg.Add("reconstruct.pair.counts", 1)
		reg.Add("reconstruct.pair.cells", int64(len(d.pair)))
		reg.Add("reconstruct.pair.sums", int64(len(d.sums)))
	}
	return total, nil
}

// landing is one closure entry of a state u: c ways to run untraced edges
// from u and then cross a traced edge labeled message msg into state w.
type landing struct {
	msg, w int
	c      *big.Int
}

// pairDP is PairCount's state. With L_u(m) the landings of u on message m
// and T(u) = stopTail.From(u, 0), the number of ordered pairs of
// completions from (u, v) with equal projections is
//
//	f(u,v) = T(u)·T(v) + Σ_m Σ_{(w,c)∈L_u(m)} c·G(m,w,v)
//	G(m,w,v) = Σ_{(w',c')∈L_v(m)} c'·f(w,w')
//
// decomposing each pair by its shared first traced message, or by both
// sides draining untraced to a stop. f is symmetric, so the pair memo is
// keyed by the unordered pair; G factors the double sum over landing
// pairs, so a partner sum is formed once however many states land on
// (m, w). Every recursive step crosses a traced edge on both sides, so
// neither memo is re-entered for a cell still being computed.
type pairDP struct {
	p        *interleave.Product
	n        uint64
	stopTail *interleave.Counter
	// msgOf[i][k] is the dense ID of instance i's flow edge k's indexed
	// message; tracedMsg is indexed by ID.
	msgOf     [][]int
	tracedMsg []bool
	// closures[u] lists u's landings sorted by (msg, w) with duplicates
	// merged; built[u] marks it computed (an empty closure is nil).
	closures [][]landing
	built    []bool
	pair     map[uint64]*big.Int // f, keyed by min(u,v)·n + max(u,v)
	sums     map[uint64]*big.Int // G, keyed by (m·n + w)·n + v
	one      *big.Int
	tmp      big.Int
}

// newPairDP interns the product's indexed messages to dense IDs, once per
// instance and flow edge, so the DP hashes no message per product edge.
func newPairDP(p *interleave.Product, traced map[string]bool, stopTail *interleave.Counter) *pairDP {
	n := p.NumStates()
	d := &pairDP{
		p:        p,
		n:        uint64(n),
		stopTail: stopTail,
		msgOf:    make([][]int, len(p.Instances())),
		closures: make([][]landing, n),
		built:    make([]bool, n),
		pair:     make(map[uint64]*big.Int),
		sums:     make(map[uint64]*big.Int),
		one:      big.NewInt(1),
	}
	ids := make(map[flow.IndexedMsg]int)
	for i, in := range p.Instances() {
		edges := in.Flow.Edges()
		d.msgOf[i] = make([]int, len(edges))
		for k, e := range edges {
			m := in.Msg(e.Msg)
			id, ok := ids[m]
			if !ok {
				id = len(ids)
				ids[m] = id
				d.tracedMsg = append(d.tracedMsg, traced[m.Name])
			}
			d.msgOf[i][k] = id
		}
	}
	return d
}

// closure returns u's landings: a traced out-edge lands directly, an
// untraced one contributes its target's closure.
func (d *pairDP) closure(u int) []landing {
	if d.built[u] {
		return d.closures[u]
	}
	var ls []landing
	for _, e := range d.p.Out(u) {
		m := d.msgOf[e.Inst][e.FlowEdge]
		if d.tracedMsg[m] {
			ls = append(ls, landing{m, e.To, d.one})
		} else {
			ls = append(ls, d.closure(e.To)...)
		}
	}
	slices.SortFunc(ls, func(a, b landing) int {
		if a.msg != b.msg {
			return a.msg - b.msg
		}
		return a.w - b.w
	})
	merged := ls[:0]
	for _, l := range ls {
		if k := len(merged) - 1; k >= 0 && merged[k].msg == l.msg && merged[k].w == l.w {
			// Counts are shared with the closures they came from: sum
			// into a fresh value.
			merged[k].c = new(big.Int).Add(merged[k].c, l.c)
			continue
		}
		merged = append(merged, l)
	}
	d.closures[u], d.built[u] = merged, true
	return merged
}

// f merge-joins the two closures on message ID.
func (d *pairDP) f(u, v int) *big.Int {
	if u > v {
		u, v = v, u
	}
	key := uint64(u)*d.n + uint64(v)
	if c, ok := d.pair[key]; ok {
		return c
	}
	c := new(big.Int).Mul(d.stopTail.From(u, 0), d.stopTail.From(v, 0))
	lu, lv := d.closure(u), d.closure(v)
	for i, j := 0, 0; i < len(lu) && j < len(lv); {
		m := lu[i].msg
		switch {
		case m < lv[j].msg:
			i++
		case m > lv[j].msg:
			j++
		default:
			je := j + 1
			for je < len(lv) && lv[je].msg == m {
				je++
			}
			for ; i < len(lu) && lu[i].msg == m; i++ {
				g := d.g(m, lu[i].w, v, lv[j:je])
				c.Add(c, d.tmp.Mul(lu[i].c, g))
			}
			j = je
		}
	}
	d.pair[key] = c
	return c
}

// g is G(m, w, v), with lv = L_v(m).
func (d *pairDP) g(m, w, v int, lv []landing) *big.Int {
	key := (uint64(m)*d.n+uint64(w))*d.n + uint64(v)
	if s, ok := d.sums[key]; ok {
		return s
	}
	s := new(big.Int)
	for _, b := range lv {
		f := d.f(w, b.w)
		s.Add(s, d.tmp.Mul(b.c, f))
	}
	d.sums[key] = s
	return s
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

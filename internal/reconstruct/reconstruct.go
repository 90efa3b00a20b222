// Package reconstruct recovers the set of full interleaved executions
// consistent with a partially observed trace — the trace-analysis side of
// post-silicon debug (Cao/Zheng/Ray's protocol-debug line) grafted onto
// the paper's selection machinery. Given a Product and a Projection (the
// traced message subset plus the observed indexed sequence), the engine
// counts the consistent executions, reports per-step survivor counts, and
// optionally enumerates witness executions.
//
// Exact mode is branch-and-bound DFS over the product lattice: the
// consistent-completion count of interleave.Counter is the bound, and any
// (state, matched-prefix) node whose count is zero is pruned — the DFS
// only ever walks subtrees that contain a witness, so enumeration cost is
// proportional to the witnesses found, not the lattice. Beam mode trades
// exactness for memory on large products: a forward DP in topological
// order that caps each state's live matched-prefix cells at BeamWidth,
// reporting a lower bound and whether anything was pruned.
//
// Ambiguity — the number of consistent reconstructions — is the quantity
// a debugger actually fights: selection that minimizes expected ambiguity
// (see PairCount) is the alternative objective to the paper's mutual
// information, surfaced as the "reconstruct" strategy in the core
// registry.
package reconstruct

import (
	"fmt"
	"math/big"
	"sort"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// Projection is an observed projection of an execution: the message names
// that were traced and the indexed sequence the trace buffer recorded.
// It is the engine's trust boundary — Validate rejects malformed input
// (duplicate traced names, untraced or impossible observed messages)
// before any counting runs.
type Projection struct {
	Traced   []string
	Observed []flow.IndexedMsg
}

// Validate checks the projection against the product it claims to observe
// and returns the traced set: every traced name must label some product
// edge and appear at most once, and every observed message must be traced
// and actually occur (its instance tag in range) in the product.
func (pr Projection) Validate(p *interleave.Product) (map[string]bool, error) {
	knownName := make(map[string]bool)
	knownMsg := make(map[flow.IndexedMsg]bool)
	for u := 0; u < p.NumStates(); u++ {
		for _, e := range p.Out(u) {
			m := p.Msg(e)
			knownName[m.Name] = true
			knownMsg[m] = true
		}
	}
	traced := make(map[string]bool, len(pr.Traced))
	for _, name := range pr.Traced {
		if traced[name] {
			return nil, fmt.Errorf("reconstruct: traced message %q listed twice", name)
		}
		if !knownName[name] {
			return nil, fmt.Errorf("reconstruct: traced message %q does not occur in the flow", name)
		}
		traced[name] = true
	}
	for _, m := range pr.Observed {
		if !traced[m.Name] {
			return nil, fmt.Errorf("reconstruct: observed message %s is not in the traced set", m)
		}
		if !knownMsg[m] {
			return nil, fmt.Errorf("reconstruct: observed message %s does not occur in the flow (instance tag out of range)", m)
		}
	}
	return traced, nil
}

// Mode selects the reconstruction algorithm.
type Mode int

const (
	// Exact counts and enumerates precisely via the Counter DP plus
	// bound-pruned DFS.
	Exact Mode = iota
	// Beam caps each state's live matched-prefix cells at BeamWidth and
	// reports a lower bound on the count.
	Beam
)

// String returns the wire name of the mode.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Beam:
		return "beam"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode resolves a wire name to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return Exact, nil
	case "beam":
		return Beam, nil
	}
	return 0, fmt.Errorf("reconstruct: unknown mode %q (want exact or beam)", s)
}

// ParseMatch resolves a wire name to the observation match semantics:
// "prefix" (the default — the buffer stopped recording at some point) or
// "exact" (the observation is the whole projection).
func ParseMatch(s string) (interleave.MatchMode, error) {
	switch s {
	case "", "prefix":
		return interleave.Prefix, nil
	case "exact":
		return interleave.Exact, nil
	}
	return 0, fmt.Errorf("reconstruct: unknown match mode %q (want prefix or exact)", s)
}

// MatchName renders the observation match semantics in wire form.
func MatchName(m interleave.MatchMode) string {
	if m == interleave.Exact {
		return "exact"
	}
	return "prefix"
}

// defaultMaxNodes bounds witness-enumeration work when the caller sets no
// explicit budget.
const defaultMaxNodes = 1 << 20

// Options configures a reconstruction. The zero value is exact-mode
// counting with prefix match semantics and no witness enumeration.
type Options struct {
	Mode      Mode
	BeamWidth int                  // beam mode: live matched-prefix cells kept per state (>= 1)
	Match     interleave.MatchMode // Prefix (default) or Exact observation semantics
	// MaxWitnesses caps how many consistent executions the exact engine
	// enumerates (0 = count only). Witness order is deterministic: DFS in
	// product edge order from the initial states.
	MaxWitnesses int
	// MaxNodes bounds DFS node expansions during witness enumeration
	// (0 = defaultMaxNodes). Hitting the budget truncates Witnesses but
	// never the count, which comes from the DP.
	MaxNodes int
}

func (o Options) validate() error {
	switch o.Mode {
	case Exact:
		if o.BeamWidth != 0 {
			return fmt.Errorf("reconstruct: BeamWidth is a beam-mode option (mode is exact)")
		}
	case Beam:
		if o.BeamWidth < 1 {
			return fmt.Errorf("reconstruct: beam mode requires BeamWidth >= 1 (got %d)", o.BeamWidth)
		}
		if o.MaxWitnesses != 0 {
			return fmt.Errorf("reconstruct: beam mode does not enumerate witnesses")
		}
	default:
		return fmt.Errorf("reconstruct: unknown mode %d", int(o.Mode))
	}
	if o.MaxWitnesses < 0 {
		return fmt.Errorf("reconstruct: MaxWitnesses must be >= 0 (got %d)", o.MaxWitnesses)
	}
	if o.MaxNodes < 0 {
		return fmt.Errorf("reconstruct: MaxNodes must be >= 0 (got %d)", o.MaxNodes)
	}
	return nil
}

// Result is one reconstruction: how many executions are consistent with
// the projection, whether that count is exact, how the candidate state
// set narrows per observed step, and (exact mode, on request) concrete
// witness executions.
type Result struct {
	// Ambiguity is the number of consistent executions — exact when Exact
	// is true, otherwise a lower bound (beam pruning only discards paths).
	Ambiguity *big.Int
	Exact     bool
	// Survivors[j] is the number of product states live after matching j
	// observed messages: reachable from an initial state under the
	// projection and, in exact mode, still able to complete consistently.
	// Beam mode omits the completion filter, so its survivor counts can
	// only over-approximate exact mode's.
	Survivors []int
	// Witnesses are up to MaxWitnesses consistent executions as indexed
	// message sequences, in DFS order.
	Witnesses [][]flow.IndexedMsg
	// Nodes is the work spent: DFS expansions (exact) or cell pushes
	// (beam).
	Nodes int
}

// Reconstruct runs the engine: validate the projection, then count (and
// in exact mode optionally enumerate) the executions consistent with it.
func Reconstruct(p *interleave.Product, pr Projection, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	traced, err := pr.Validate(p)
	if err != nil {
		return nil, err
	}
	if opt.Mode == Beam {
		return beamReconstruct(p, traced, pr.Observed, opt)
	}
	return exactReconstruct(p, traced, pr.Observed, opt)
}

// exactReconstruct is the DP count plus bound-pruned witness DFS.
func exactReconstruct(p *interleave.Product, traced map[string]bool, observed []flow.IndexedMsg, opt Options) (*Result, error) {
	ctr, err := p.NewCounter(traced, observed, opt.Match)
	if err != nil {
		return nil, err
	}
	res := &Result{Ambiguity: ctr.Total(), Exact: true}

	// Forward reachability over (state, matched) — the same sweep the DOT
	// highlighter runs — held as one multi-word bitset per matched count.
	k := len(observed)
	words := (p.NumStates() + 63) / 64
	reach := make([][]uint64, k+1)
	for j := range reach {
		reach[j] = make([]uint64, words)
	}
	type node struct{ u, j int }
	var stack []node
	push := func(n node) {
		if reach[n.j][n.u>>6]&(1<<(uint(n.u)&63)) == 0 {
			reach[n.j][n.u>>6] |= 1 << (uint(n.u) & 63)
			stack = append(stack, n)
		}
	}
	for _, s := range p.Init() {
		push(node{s, 0})
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range p.Out(n.u) {
			if nj, ok := ctr.Step(p.Msg(e), n.j); ok {
				push(node{e.To, nj})
			}
		}
	}
	res.Survivors = make([]int, k+1)
	for j := 0; j <= k; j++ {
		for u := 0; u < p.NumStates(); u++ {
			if reach[j][u>>6]&(1<<(uint(u)&63)) != 0 && ctr.From(u, j).Sign() > 0 {
				res.Survivors[j]++
			}
		}
	}

	if opt.MaxWitnesses > 0 {
		enumerateWitnesses(p, ctr, opt, res)
	}
	return res, nil
}

// enumerateWitnesses walks the lattice depth-first, taking only steps
// whose successor still has a positive consistent-completion count (the
// branch-and-bound prune: a zero bound means the subtree holds no
// witness). It stops at MaxWitnesses traces or the node budget.
func enumerateWitnesses(p *interleave.Product, ctr *interleave.Counter, opt Options, res *Result) {
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	k := len(ctr.Observed())
	isStop := make([]bool, p.NumStates())
	for _, s := range p.Stop() {
		isStop[s] = true
	}
	var trace []flow.IndexedMsg
	var walk func(u, j int) bool
	walk = func(u, j int) bool {
		res.Nodes++
		if res.Nodes > maxNodes {
			return false
		}
		if isStop[u] && j == k {
			res.Witnesses = append(res.Witnesses, append([]flow.IndexedMsg(nil), trace...))
			if len(res.Witnesses) >= opt.MaxWitnesses {
				return false
			}
		}
		for _, e := range p.Out(u) {
			nj, ok := ctr.Step(p.Msg(e), j)
			if !ok || ctr.From(e.To, nj).Sign() == 0 {
				continue
			}
			trace = append(trace, p.Msg(e))
			more := walk(e.To, nj)
			trace = trace[:len(trace)-1]
			if !more {
				return false
			}
		}
		return true
	}
	seen := make(map[int]bool, len(p.Init()))
	for _, s := range p.Init() {
		if seen[s] {
			continue
		}
		seen[s] = true
		if ctr.From(s, 0).Sign() == 0 {
			continue
		}
		if !walk(s, 0) {
			return
		}
	}
}

// beamCell is one live (matched-count, prefix-count) entry at a state.
type beamCell struct {
	j int
	c *big.Int
}

// beamReconstruct runs the width-capped forward DP: states in topological
// order, each state's live cells capped at BeamWidth (keep the largest
// prefix counts; ties prefer fewer matched messages, the cells with the
// most completion freedom ahead of them). The resulting count is a lower
// bound — pruning a cell only ever discards consistent prefixes.
func beamReconstruct(p *interleave.Product, traced map[string]bool, observed []flow.IndexedMsg, opt Options) (*Result, error) {
	ctr, err := p.NewCounter(traced, observed, opt.Match)
	if err != nil {
		return nil, err
	}
	k := len(observed)
	order, err := topoOrder(p)
	if err != nil {
		return nil, err
	}
	isStop := make([]bool, p.NumStates())
	for _, s := range p.Stop() {
		isStop[s] = true
	}

	res := &Result{Ambiguity: new(big.Int), Exact: true, Survivors: make([]int, k+1)}
	cells := make([]map[int]*big.Int, p.NumStates())
	add := func(u, j int, c *big.Int) {
		if cells[u] == nil {
			cells[u] = make(map[int]*big.Int)
		}
		if got := cells[u][j]; got != nil {
			got.Add(got, c)
		} else {
			cells[u][j] = new(big.Int).Set(c)
		}
	}
	one := big.NewInt(1)
	seen := make(map[int]bool, len(p.Init()))
	for _, s := range p.Init() {
		if !seen[s] {
			seen[s] = true
			add(s, 0, one)
		}
	}
	for _, u := range order {
		if cells[u] == nil {
			continue
		}
		live := make([]beamCell, 0, len(cells[u]))
		for j, c := range cells[u] {
			live = append(live, beamCell{j, c})
		}
		sort.Slice(live, func(a, b int) bool {
			if cmp := live[a].c.Cmp(live[b].c); cmp != 0 {
				return cmp > 0
			}
			return live[a].j < live[b].j
		})
		if len(live) > opt.BeamWidth {
			live = live[:opt.BeamWidth]
			res.Exact = false
		}
		for _, cell := range live {
			res.Survivors[cell.j]++
			if isStop[u] && cell.j == k {
				res.Ambiguity.Add(res.Ambiguity, cell.c)
			}
			for _, e := range p.Out(u) {
				if nj, ok := ctr.Step(p.Msg(e), cell.j); ok {
					res.Nodes++
					add(e.To, nj, cell.c)
				}
			}
		}
		cells[u] = nil // release; every successor sits later in the order
	}
	return res, nil
}

// topoOrder returns the product's states in a deterministic topological
// order (Kahn's algorithm, FIFO over the deterministic build order).
func topoOrder(p *interleave.Product) ([]int, error) {
	n := p.NumStates()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		for _, e := range p.Out(u) {
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range p.Out(u) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
		// Products of DAGs are DAGs; a cycle here is a library bug.
		return nil, fmt.Errorf("reconstruct: product is not acyclic")
	}
	return order, nil
}

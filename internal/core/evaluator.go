// Package core implements the paper's trace-message selection methodology
// (DAC'18, §3): Step 1 enumerates message combinations that fit the trace
// buffer, Step 2 selects the combination with the highest mutual
// information gain over the interleaved flow, and Step 3 packs leftover
// buffer bits with subgroups of wide messages. It also provides the
// flow-specification-coverage metric (Definition 7) and scalable selection
// variants (exact knapsack and lazy greedy) that exploit the additivity of
// the paper's gain metric.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"tracescale/internal/flow"
	"tracescale/internal/info"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
)

// Evaluator holds the sufficient statistics of an interleaved flow so that
// the gain and coverage of many candidate message combinations can be
// scored cheaply. It derives them in closed form from per-component counts
// and never walks the product; the product itself is built lazily, once,
// for the consumers that need its states and paths (Product). Create one
// with Analyze (or NewEvaluator over a built product) and reuse it across
// candidates.
type Evaluator struct {
	instances []flow.Instance
	obs       *obs.Registry // observability sink; nil is a valid no-op
	numStates int
	totalOcc  int // product edges: Σ_i |E_i| · Π_{j≠i} NA_j

	universe []flow.Message // distinct messages across all instances, in first-appearance order
	byName   map[string]int // name -> index into universe
	gainOf   []float64      // per-universe-message gain contribution (additive)
	widthOf  []int          // per-universe-message trace width (cached TraceWidth)

	// Coverage (Definition 7) in per-component form. A cover bitset holds,
	// for each component j, its non-atomic states in words
	// [comps[j].lo, comps[j].mid) and its atomic states in words
	// [comps[j].mid, comps[j].hi); visibleOf[i] marks the component states
	// entered by an edge labeled with universe message i, and
	// visibleStates turns a union of them into a product-state count.
	comps      []component
	coverWords int
	naProd     int // Π NA_j: product states with no component atomic
	visibleOf  []bitset

	prodOnce sync.Once
	p        *interleave.Product

	// feasibleBy memoizes countFeasible per budget — the width multiset is
	// immutable after construction, so the subset-sum DP runs at most once
	// per distinct budget even across concurrent Selects.
	feasibleMu sync.Mutex
	feasibleBy map[int]int64
}

// component is one instance's slice of a cover bitset and its factors in
// the product-state count.
type component struct {
	lo, mid, hi int // word ranges: non-atomic states [lo, mid), atomic [mid, hi)
	na          int // NA_j, its non-atomic state count
	others      int // Π_{k≠j} NA_k: product states per atomic state of j
}

// Analyze computes the evaluator of the instances' interleaved flow
// without building it. Admission comes first: an instance set New would
// reject — empty, illegally indexed, or over interleave.MaxStates by the
// closed-form state count — fails with New's error before anything is
// allocated, so the lazy build behind Product cannot fail. Analyze also
// fails if two flows declare messages with the same name but different
// width, source, or destination: a message name must identify one
// physical interface signal group.
//
// The statistics are exact closed forms over per-component counts, which
// Definition 5's atomic mutex makes possible (see interleave.Admit for
// the state count). With NA_j and A_j component j's non-atomic and atomic
// state counts:
//
//   - an edge of component i fires from Π_{j≠i} NA_j product states, so an
//     indexed message's occurrence count is Σ over its carriers i of
//     (#edges labeled with it in i)·Π_{j≠i} NA_j;
//   - a product state with every component non-atomic is entered by each
//     carrier's edges into that carrier's component state, and one with
//     component a atomic only by a's, so the histogram of target
//     multiplicities is the convolution of the carriers' non-atomic
//     histograms plus each carrier's atomic-state term times Π_{j≠a} NA_j;
//   - a product state is visible iff some component i entered a visible
//     state of i while every other component is non-atomic (visibleStates).
//
// reg, when non-nil, receives core.evaluator.{builds,states,build_ns},
// every Select's core.select.* metrics, and the lazy product build's
// interleave.* metrics.
func Analyze(instances []flow.Instance, reg *obs.Registry) (*Evaluator, error) {
	return analyze(instances, reg, nil)
}

// NewEvaluator is Analyze over an already built product, which Product
// then returns instead of building its own. The product's registry is the
// evaluator's.
func NewEvaluator(p *interleave.Product) (*Evaluator, error) {
	return analyze(p.Instances(), p.Obs(), p)
}

func analyze(instances []flow.Instance, reg *obs.Registry, p *interleave.Product) (*Evaluator, error) {
	var start time.Time
	if reg != nil {
		//lint:ignore clockrand registry-gated metrics timing; never reaches the evaluator's statistics
		start = time.Now()
	}
	n, err := interleave.Admit(instances)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		instances:  instances,
		obs:        reg,
		numStates:  n,
		p:          p,
		byName:     make(map[string]int),
		feasibleBy: make(map[int]int64),
	}
	for _, in := range instances {
		for _, m := range in.Flow.Messages() {
			if i, ok := e.byName[m.Name]; ok {
				prev := e.universe[i]
				if prev.Width != m.Width || prev.Src != m.Src || prev.Dst != m.Dst {
					return nil, fmt.Errorf("core: message %q redeclared with conflicting definition (%d bits %s->%s vs %d bits %s->%s)",
						m.Name, prev.Width, prev.Src, prev.Dst, m.Width, m.Src, m.Dst)
				}
				continue
			}
			e.byName[m.Name] = len(e.universe)
			e.universe = append(e.universe, m)
		}
	}
	e.widthOf = make([]int, len(e.universe))
	for i, m := range e.universe {
		e.widthOf[i] = m.TraceWidth()
	}

	counts := e.layoutComponents()
	for j, fc := range counts {
		e.totalOcc += len(fc.f.Edges()) * e.comps[j].others
	}
	if e.totalOcc == 0 {
		return nil, fmt.Errorf("core: interleaved flow has no transitions")
	}
	e.visibleOf = make([]bitset, len(e.universe))
	words := make(bitset, len(e.universe)*e.coverWords)
	for i := range e.visibleOf {
		e.visibleOf[i] = words[i*e.coverWords : (i+1)*e.coverWords : (i+1)*e.coverWords]
	}
	for j, fc := range counts {
		for _, ed := range fc.f.Edges() {
			e.visibleOf[fc.universeOf[ed.Msg]].set(e.comps[j].bit(fc, ed.To))
		}
	}
	e.gains(counts)

	if reg != nil {
		reg.Counter("core.evaluator.builds").Inc()
		reg.Add("core.evaluator.states", int64(n))
		//lint:ignore clockrand registry-gated metrics timing; never reaches the evaluator's statistics
		reg.Add("core.evaluator.build_ns", time.Since(start).Nanoseconds())
	}
	return e, nil
}

// flowCounts is what the closed forms need of one flow, computed once and
// shared by every instance of it. Its size is linear in the flow's states
// and edges.
type flowCounts struct {
	f          *flow.Flow
	na         int     // non-atomic states
	rank       []int   // state -> rank among the flow's non-atomic, or atomic, states
	universeOf []int   // message id -> universe index
	edges      []int   // message id -> edges labeled with it
	naHist     [][]int // message id -> h[c] = non-atomic states entered by c such edges
	atomicIn   [][]int // message id -> c > 0 for each atomic state entered by c such edges
}

func (e *Evaluator) countFlow(f *flow.Flow) *flowCounts {
	msgs := f.NumMessages()
	fc := &flowCounts{
		f:          f,
		rank:       make([]int, f.NumStates()),
		universeOf: make([]int, msgs),
		edges:      make([]int, msgs),
		naHist:     make([][]int, msgs),
		atomicIn:   make([][]int, msgs),
	}
	na := 0
	for s := range fc.rank {
		if f.IsAtomic(s) {
			fc.rank[s] = s - na
		} else {
			fc.rank[s] = na
			na++
		}
	}
	fc.na = na
	for m, msg := range f.Messages() {
		fc.universeOf[m] = e.byName[msg.Name]
	}
	targets := make([][]int, msgs)
	for _, ed := range f.Edges() {
		targets[ed.Msg] = append(targets[ed.Msg], ed.To)
		fc.edges[ed.Msg]++
	}
	for m, tos := range targets {
		slices.Sort(tos)
		h := []int{na}
		for lo := 0; lo < len(tos); {
			hi := lo + 1
			for hi < len(tos) && tos[hi] == tos[lo] {
				hi++
			}
			if c := hi - lo; f.IsAtomic(tos[lo]) {
				fc.atomicIn[m] = append(fc.atomicIn[m], c)
			} else {
				for len(h) <= c {
					h = append(h, 0)
				}
				h[0]--
				h[c]++
			}
			lo = hi
		}
		fc.naHist[m] = h
	}
	return fc
}

// bit returns the position of component state s in a cover bitset.
func (c component) bit(fc *flowCounts, s int) int {
	if fc.f.IsAtomic(s) {
		return c.mid*64 + fc.rank[s]
	}
	return c.lo*64 + fc.rank[s]
}

// layoutComponents fills e.comps — word ranges and NA factors — and
// returns each component's flow counts.
func (e *Evaluator) layoutComponents() []*flowCounts {
	e.comps = make([]component, len(e.instances))
	counts := make([]*flowCounts, len(e.instances))
	byFlow := make(map[*flow.Flow]*flowCounts)
	words := 0
	e.naProd = 1
	for j, in := range e.instances {
		fc := byFlow[in.Flow]
		if fc == nil {
			fc = e.countFlow(in.Flow)
			byFlow[in.Flow] = fc
		}
		na, a := fc.na, len(fc.rank)-fc.na
		c := component{lo: words, mid: words + (na+63)/64, na: na}
		c.hi = c.mid + (a+63)/64
		words = c.hi
		e.naProd *= na
		e.comps[j] = c
		counts[j] = fc
	}
	e.coverWords = words
	// others = Π_{k≠j} NA_k from prefix and suffix products; every factor
	// divides the admitted state count, so nothing overflows.
	suffix := 1
	for j := len(e.comps) - 1; j >= 0; j-- {
		e.comps[j].others = suffix
		suffix *= e.comps[j].na
	}
	prefix := 1
	for j := range e.comps {
		e.comps[j].others *= prefix
		prefix *= e.comps[j].na
	}
	return counts
}

// carrier is one component's share of an indexed message: component comp
// labels edges with its flow message m.
type carrier struct {
	msg  flow.IndexedMsg
	comp int
	m    int
}

// gains fills gainOf. Each indexed message y contributes
// Σ_x p(x,y)·ln(p(x,y)/(p(x)p(y))) with p(x) = 1/|S| uniform and
// p(y) = count_y/totalOcc. A target state entered by c of y's edges
// contributes the same term as every other such state, so the sum runs
// over y's target-multiplicity histogram: bucket c adds n_c·term(c), in
// ascending c. Indexed messages are folded into their universe message in
// (Name, Index) order, so the float summation order is fixed.
func (e *Evaluator) gains(counts []*flowCounts) {
	var carriers []carrier
	for j, fc := range counts {
		for m := range fc.edges {
			carriers = append(carriers, carrier{msg: e.instances[j].Msg(m), comp: j, m: m})
		}
	}
	slices.SortFunc(carriers, func(a, b carrier) int {
		if c := strings.Compare(a.msg.Name, b.msg.Name); c != 0 {
			return c
		}
		if c := cmp.Compare(a.msg.Index, b.msg.Index); c != 0 {
			return c
		}
		return cmp.Compare(a.comp, b.comp)
	})

	e.gainOf = make([]float64, len(e.universe))
	px := 1.0 / float64(e.numStates)
	var buf histBufs
	for lo := 0; lo < len(carriers); {
		hi := lo + 1
		for hi < len(carriers) && carriers[hi].msg == carriers[lo].msg {
			hi++
		}
		group := carriers[lo:hi]
		lo = hi
		count := 0
		for _, cr := range group {
			count += counts[cr.comp].edges[cr.m] * e.comps[cr.comp].others
		}
		py := float64(count) / float64(e.totalOcc)
		var acc info.Accumulator
		for c, states := range e.targetHistogram(counts, group, &buf) {
			if c > 0 && states > 0 {
				acc.AddN(states, py*float64(c)/float64(count), px, py)
			}
		}
		e.gainOf[e.byName[group[0].msg.Name]] += acc.Value()
	}
}

// histBufs are targetHistogram's scratch slices, reused across messages.
type histBufs struct{ hist, conv []int }

// targetHistogram returns hist[c] = the number of product states entered
// by exactly c edges labeled with the group's indexed message. States
// with every component non-atomic take the convolution of the carriers'
// histograms over their non-atomic states, scaled by the non-carriers'
// NA product; a state with component a atomic is entered only by a's
// edges, so each carrier's atomic states add Π_{j≠a} NA_j apiece. The
// result aliases b.
func (e *Evaluator) targetHistogram(counts []*flowCounts, group []carrier, b *histBufs) []int {
	b.hist = append(b.hist[:0], 1)
	carrierNA := 1
	for _, cr := range group {
		h := counts[cr.comp].naHist[cr.m]
		b.conv = append(b.conv[:0], make([]int, len(b.hist)+len(h)-1)...)
		for x, nx := range b.hist {
			for y, ny := range h {
				b.conv[x+y] += nx * ny
			}
		}
		b.hist, b.conv = b.conv, b.hist
		carrierNA *= e.comps[cr.comp].na
	}
	scale := e.naProd / carrierNA
	for c := range b.hist {
		b.hist[c] *= scale
	}
	for _, cr := range group {
		for _, c := range counts[cr.comp].atomicIn[cr.m] {
			for len(b.hist) <= c {
				b.hist = append(b.hist, 0)
			}
			b.hist[c] += e.comps[cr.comp].others
		}
	}
	return b.hist
}

// newCover returns an empty cover bitset.
func (e *Evaluator) newCover() bitset { return make(bitset, e.coverWords) }

// visibleStates counts the product states a cover bitset u makes visible.
// With U_j the visible states of component j, a state with every
// component non-atomic is visible unless each component sits outside
// U_j, and a state with component a atomic is visible iff a sits in U_a:
//
//	Π NA_j − Π (NA_j − |U_j ∩ NA_j|) + Σ_a |U_a ∩ A_a| · Π_{j≠a} NA_j.
func (e *Evaluator) visibleStates(u bitset) int {
	hidden, atomic := 1, 0
	for _, c := range e.comps {
		hidden *= c.na - u.countRange(c.lo, c.mid)
		if c.hi > c.mid {
			atomic += u.countRange(c.mid, c.hi) * c.others
		}
	}
	return e.naProd - hidden + atomic
}

// coverage is visibleStates as a fraction of the product's states.
func (e *Evaluator) coverage(u bitset) float64 {
	return float64(e.visibleStates(u)) / float64(e.numStates)
}

// Product returns the interleaved flow under evaluation, building it on
// first use — the consumers that walk product states and paths
// (reconstruction, ambiguity, localization, path counting, the debugger)
// pay for it; selection never does. Concurrent first calls build it once.
func (e *Evaluator) Product() *interleave.Product {
	e.prodOnce.Do(func() {
		if e.p != nil {
			return
		}
		p, err := interleave.NewObserved(e.instances, e.obs)
		if err != nil {
			// Analyze admitted the instance set with New's own checks.
			panic("core: admitted instance set failed to interleave: " + err.Error())
		}
		e.p = p
	})
	return e.p
}

// NumStates returns the number of states of the interleaved flow, from
// the closed form — without building the product.
func (e *Evaluator) NumStates() int { return e.numStates }

// Universe returns the distinct messages of the participating flows in
// first-appearance order. The slice must not be modified.
func (e *Evaluator) Universe() []flow.Message { return e.universe }

// MessageByName returns the universe message with the given name.
func (e *Evaluator) MessageByName(name string) (flow.Message, bool) {
	if i, ok := e.byName[name]; ok {
		return e.universe[i], true
	}
	return flow.Message{}, false
}

func (e *Evaluator) indices(names []string) ([]int, error) {
	seen := make(map[int]bool, len(names))
	out := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := e.byName[n]
		if !ok {
			return nil, fmt.Errorf("core: unknown message %q", n)
		}
		if seen[i] {
			continue // a combination is a set; duplicates are harmless
		}
		seen[i] = true
		out = append(out, i)
	}
	return out, nil
}

// Gain returns the mutual information gain I(X;Y) in nats of the message
// combination over the interleaved flow (§3.2). Duplicate names count
// once. Unknown names are an error.
func (e *Evaluator) Gain(names []string) (float64, error) {
	idx, err := e.indices(names)
	if err != nil {
		return 0, err
	}
	g := 0.0
	for _, i := range idx {
		g += e.gainOf[i]
	}
	return g, nil
}

// Coverage returns the flow-specification coverage (Definition 7) of the
// message combination: the fraction of interleaved-flow states entered by
// a transition labeled with one of the messages.
func (e *Evaluator) Coverage(names []string) (float64, error) {
	idx, err := e.indices(names)
	if err != nil {
		return 0, err
	}
	seen := e.newCover()
	for _, i := range idx {
		seen.or(e.visibleOf[i])
	}
	return e.coverage(seen), nil
}

// Width returns the summed per-cycle trace width of the combination
// (Definition 6, with footnote 2's rule for multi-cycle messages).
// Duplicate names count once.
func (e *Evaluator) Width(names []string) (int, error) {
	idx, err := e.indices(names)
	if err != nil {
		return 0, err
	}
	w := 0
	for _, i := range idx {
		w += e.universe[i].TraceWidth()
	}
	return w, nil
}

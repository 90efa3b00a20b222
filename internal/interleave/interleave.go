// Package interleave constructs the interleaved flow of a set of legally
// indexed flow instances (Definition 5 of the DAC'18 paper): the
// synchronized product automaton in which a component flow may take a step
// only while no *other* component sits in an atomic state, so that two
// atomic states never coexist. The product is the probability space over
// which message combinations are scored by mutual information gain, and the
// path space over which debugging localization is measured.
package interleave

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"time"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
)

// Edge is one transition of the interleaved flow: instance Inst performed
// its flow edge FlowEdge, moving the product to state To.
type Edge struct {
	To       int
	Inst     int // index into the product's instance list
	FlowEdge int // edge index within that instance's flow
}

// Product is the interleaved flow U = F1 ||| F2 ||| ... of the given
// instances, restricted to states reachable from the initial tuple(s).
// It is immutable after New.
type Product struct {
	instances []flow.Instance
	tuples    [][]int // tuples[i] = component state per instance
	index     map[string]int
	init      []int
	stop      []int
	out       [][]Edge
	numEdges  int
	obs       *obs.Registry // observability sink; nil is a valid no-op
}

// ErrNotLegallyIndexed is returned by New when two instances of the same
// flow share an index (violating Definition 4).
var ErrNotLegallyIndexed = errors.New("interleave: instances are not legally indexed")

// MaxStates bounds product construction; New and Admit fail rather than
// exhausting memory on pathological inputs.
const MaxStates = 4_000_000

// Admit checks an instance set against New's preconditions and returns the
// exact number of states its product has, without building it.
//
// Every state of a built flow is reachable (flow.Builder enforces it), and
// the product reaches every tuple of component states in which at most one
// component is atomic: move each component bound for a non-atomic state
// along its own path, one at a time, then the one bound for an atomic
// state. With NA_j and A_j the non-atomic and atomic state counts of
// component j, the state count is therefore
//
//	|S| = Π NA_j + Σ_i A_i · Π_{j≠i} NA_j,
//
// folded left to right as S ← S·NA_k + P·A_k, P ← P·NA_k. Both folds
// saturate just past MaxStates, so a set of any size is admitted or
// rejected without overflow and before anything proportional to its
// product is allocated. Admit returns New's errors for an empty or
// illegally indexed set and for one over MaxStates.
func Admit(instances []flow.Instance) (int, error) {
	if len(instances) == 0 {
		return 0, errors.New("interleave: no instances")
	}
	if !flow.LegallyIndexed(instances) {
		return 0, ErrNotLegallyIndexed
	}
	// Operands stay at or below limit, so each product fits int64 before
	// it is clamped.
	const limit = MaxStates + 1
	all, legal := 1, 1
	for _, in := range instances {
		na, a := atomicSplit(in.Flow)
		na, a = min(na, limit), min(a, limit)
		legal = min(legal*na+all*a, limit)
		all = min(all*na, limit)
	}
	if legal > MaxStates {
		return 0, fmt.Errorf("interleave: product exceeds %d states", MaxStates)
	}
	return legal, nil
}

// atomicSplit returns how many of f's states are non-atomic and atomic —
// the per-component factors of Admit's closed form.
func atomicSplit(f *flow.Flow) (nonAtomic, atomic int) {
	for s := 0; s < f.NumStates(); s++ {
		if f.IsAtomic(s) {
			atomic++
		}
	}
	return f.NumStates() - atomic, atomic
}

func key(tuple []int) string {
	var sb strings.Builder
	for i, s := range tuple {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", s)
	}
	return sb.String()
}

// New builds the interleaved flow of the given instances. It returns
// ErrNotLegallyIndexed for illegal indexing and an error if the reachable
// product exceeds MaxStates; both are decided by Admit before the build
// allocates anything.
func New(instances []flow.Instance) (*Product, error) {
	return NewObserved(instances, nil)
}

// NewObserved is New with an observability sink: the build records
// interleave.builds, interleave.states, interleave.edges, and
// interleave.build_ns into reg, and the Product carries reg so downstream
// consumers (the evaluator, path counting) report into the same registry.
// A nil registry makes NewObserved identical to New.
func NewObserved(instances []flow.Instance, reg *obs.Registry) (*Product, error) {
	var start time.Time
	if reg != nil {
		//lint:ignore clockrand registry-gated metrics timing; never reaches the product's structure
		start = time.Now()
	}
	n, err := Admit(instances)
	if err != nil {
		return nil, err
	}
	p := &Product{
		instances: instances,
		tuples:    make([][]int, 0, n),
		index:     make(map[string]int, n),
		out:       make([][]Edge, 0, n),
		obs:       reg,
	}

	// Seed with the cross product of component initial states. Initial
	// states are never atomic (flow.Builder enforces it), so every seed
	// tuple is legal.
	var seeds [][]int
	seeds = append(seeds, []int{})
	for _, in := range instances {
		var next [][]int
		for _, partial := range seeds {
			for _, s0 := range in.Flow.Init() {
				t := make([]int, len(partial), len(instances))
				copy(t, partial)
				next = append(next, append(t, s0))
			}
		}
		seeds = next
	}
	for _, t := range seeds {
		p.init = append(p.init, p.intern(t))
	}

	// BFS over reachable product states. Admit's count is exact, so the
	// search stays within MaxStates.
	for head := 0; head < len(p.tuples); head++ {
		tuple := p.tuples[head]
		// blocked[i]: some other component is atomic, so instance i may not
		// move. With at most one atomic component (an invariant of the
		// construction), this means: if component a is atomic, only a moves.
		atomicAt := -1
		for i, in := range p.instances {
			if in.Flow.IsAtomic(tuple[i]) {
				atomicAt = i
				break
			}
		}
		for i, in := range p.instances {
			if atomicAt >= 0 && atomicAt != i {
				continue
			}
			f := in.Flow
			for _, ei := range f.Out(tuple[i]) {
				e := f.Edges()[ei]
				succ := make([]int, len(tuple))
				copy(succ, tuple)
				succ[i] = e.To
				v := p.intern(succ)
				p.out[head] = append(p.out[head], Edge{To: v, Inst: i, FlowEdge: ei})
				p.numEdges++
			}
		}
	}

	// Stop states: every component in a stop state of its flow.
	for u, tuple := range p.tuples {
		allStop := true
		for i, in := range p.instances {
			if !in.Flow.IsStop(tuple[i]) {
				allStop = false
				break
			}
		}
		if allStop {
			p.stop = append(p.stop, u)
		}
	}
	if len(p.stop) == 0 {
		return nil, errors.New("interleave: no reachable stop state")
	}
	if reg != nil {
		reg.Counter("interleave.builds").Inc()
		reg.Add("interleave.states", int64(p.NumStates()))
		reg.Add("interleave.edges", int64(p.numEdges))
		//lint:ignore clockrand registry-gated metrics timing; never reaches the product's structure
		reg.Add("interleave.build_ns", time.Since(start).Nanoseconds())
		reg.Trace().Emit("interleave", "build", map[string]int64{
			"instances": int64(len(instances)),
			"states":    int64(p.NumStates()),
			"edges":     int64(p.numEdges),
		})
	}
	return p, nil
}

// Obs returns the observability registry the product was built with (nil
// when the product is unobserved).
func (p *Product) Obs() *obs.Registry { return p.obs }

func (p *Product) intern(tuple []int) int {
	k := key(tuple)
	if id, ok := p.index[k]; ok {
		return id
	}
	id := len(p.tuples)
	p.index[k] = id
	p.tuples = append(p.tuples, tuple)
	p.out = append(p.out, nil)
	return id
}

// Instances returns the participating instances. The slice must not be
// modified.
func (p *Product) Instances() []flow.Instance { return p.instances }

// NumStates returns the number of reachable legal product states.
func (p *Product) NumStates() int { return len(p.tuples) }

// NumEdges returns the number of product transitions.
func (p *Product) NumEdges() int { return p.numEdges }

// Init returns the initial product states.
func (p *Product) Init() []int { return p.init }

// Stop returns the product states in which every component flow has
// completed.
func (p *Product) Stop() []int { return p.stop }

// Out returns the transitions leaving product state u. The slice must not
// be modified.
func (p *Product) Out(u int) []Edge { return p.out[u] }

// Tuple returns the component states of product state u. The slice must
// not be modified.
func (p *Product) Tuple(u int) []int { return p.tuples[u] }

// StateName renders product state u in the paper's (c1, n2) style: each
// component's state name suffixed with its instance index.
func (p *Product) StateName(u int) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, s := range p.tuples[u] {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s%d", p.instances[i].Flow.StateName(s), p.instances[i].Index)
	}
	sb.WriteByte(')')
	return sb.String()
}

// FindState returns the product state with the given component tuple, or
// -1 if that tuple is unreachable or illegal.
func (p *Product) FindState(tuple []int) int {
	if len(tuple) != len(p.instances) {
		return -1
	}
	if id, ok := p.index[key(tuple)]; ok {
		return id
	}
	return -1
}

// Msg returns the indexed message labeling edge e.
func (p *Product) Msg(e Edge) flow.IndexedMsg {
	in := p.instances[e.Inst]
	return in.Msg(in.Flow.Edges()[e.FlowEdge].Msg)
}

// Message returns the unindexed message labeling edge e.
func (p *Product) Message(e Edge) flow.Message {
	f := p.instances[e.Inst].Flow
	return f.Message(f.Edges()[e.FlowEdge].Msg)
}

// TotalPaths returns the exact number of executions of the interleaved
// flow: directed paths from an initial state to a stop state. It is the
// Counter over an empty observation: with nothing traced, every edge is
// consistent.
func (p *Product) TotalPaths() *big.Int {
	total := p.newCounter(nil, nil, Exact).Total()
	if p.obs != nil {
		p.obs.Counter("interleave.paths_counted").Inc()
		// Saturate: the exact count can exceed int64 on big products.
		if total.IsInt64() {
			p.obs.Gauge("interleave.paths_last").Set(total.Int64())
		} else {
			p.obs.Gauge("interleave.paths_last").Set(int64(^uint64(0) >> 1))
		}
	}
	return total
}

// MsgStat aggregates the occurrences of one indexed message over the
// interleaved flow: how many edges it labels and, per target state, how
// many of those edges enter that state. These are the sufficient
// statistics for the paper's information-gain computation (p(y) and
// p(x|y)).
type MsgStat struct {
	Count   int
	Targets map[int]int
}

// MessageStats returns per-indexed-message statistics over all edges.
func (p *Product) MessageStats() map[flow.IndexedMsg]*MsgStat {
	stats := make(map[flow.IndexedMsg]*MsgStat)
	for u := range p.out {
		for _, e := range p.out[u] {
			m := p.Msg(e)
			st := stats[m]
			if st == nil {
				st = &MsgStat{Targets: make(map[int]int)}
				stats[m] = st
			}
			st.Count++
			st.Targets[e.To]++
		}
	}
	return stats
}

// VisibleStates returns the number of distinct product states reached by a
// transition labeled with any message whose name is in names (the visible
// states of Definition 7). Indexing is ignored: selecting a message makes
// every instance of it observable.
func (p *Product) VisibleStates(names map[string]bool) int {
	seen := make(map[int]bool)
	for u := range p.out {
		for _, e := range p.out[u] {
			if names[p.Message(e).Name] {
				seen[e.To] = true
			}
		}
	}
	return len(seen)
}

// Execution is one complete execution of the interleaved flow: the
// product states visited and the edges taken.
type Execution struct {
	States []int
	Edges  []Edge
}

// Trace returns the execution's indexed-message sequence.
func (e Execution) Trace(p *Product) []flow.IndexedMsg {
	out := make([]flow.IndexedMsg, len(e.Edges))
	for i, edge := range e.Edges {
		out[i] = p.Msg(edge)
	}
	return out
}

// Executions enumerates the interleaved flow's executions and calls fn for
// each, stopping early if fn returns false. The Execution passed to fn is
// reused; copy it to retain it. Exponentially many executions exist —
// callers should bound enumeration via the callback.
func (p *Product) Executions(fn func(Execution) bool) {
	isStop := make([]bool, p.NumStates())
	for _, s := range p.stop {
		isStop[s] = true
	}
	states := make([]int, 0, 64)
	edges := make([]Edge, 0, 64)
	var walk func(u int) bool
	walk = func(u int) bool {
		states = append(states, u)
		defer func() { states = states[:len(states)-1] }()
		if isStop[u] {
			if !fn(Execution{States: states, Edges: edges}) {
				return false
			}
		}
		for _, e := range p.out[u] {
			edges = append(edges, e)
			ok := walk(e.To)
			edges = edges[:len(edges)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	seen := make(map[int]bool, len(p.init))
	for _, s := range p.init {
		if seen[s] {
			continue
		}
		seen[s] = true
		if !walk(s) {
			return
		}
	}
}

// RandomExecution draws one execution uniformly at random over local edge
// choices (not over complete paths) — a cheap sampler for synthetic
// observations.
func (p *Product) RandomExecution(rng *rand.Rand) Execution {
	isStop := make([]bool, p.NumStates())
	for _, s := range p.stop {
		isStop[s] = true
	}
	u := p.init[rng.Intn(len(p.init))]
	var ex Execution
	ex.States = append(ex.States, u)
	for !isStop[u] {
		outs := p.out[u]
		if len(outs) == 0 {
			break // dead end (cannot happen in validated flows)
		}
		e := outs[rng.Intn(len(outs))]
		ex.Edges = append(ex.Edges, e)
		u = e.To
		ex.States = append(ex.States, u)
	}
	return ex
}

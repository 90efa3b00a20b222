package interleave

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
)

// twoInstances returns the paper's running example: two legally indexed
// instances of the toy cache-coherence flow (Figures 1b and 2).
func twoInstances(t *testing.T) *Product {
	t.Helper()
	f := flow.CacheCoherence()
	p, err := New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// linearFlow builds a linear chain flow with n states (n-1 one-bit
// messages), no atomic states.
func linearFlow(t *testing.T, name string, n int) *flow.Flow {
	t.Helper()
	b := flow.NewBuilder(name)
	states := make([]string, n)
	msgs := make([]string, n-1)
	for i := range states {
		states[i] = string(rune('a' + i))
	}
	b.States(states...)
	b.Init(states[0])
	b.Stop(states[n-1])
	for i := range msgs {
		msgs[i] = name + "_m" + string(rune('0'+i))
		b.Message(flow.Message{Name: msgs[i], Width: 1})
	}
	b.Chain(states, msgs)
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPaperExampleStateAndEdgeCounts(t *testing.T) {
	p := twoInstances(t)
	if p.NumStates() != 15 {
		t.Errorf("NumStates = %d, want 15 (4*4 minus the illegal (GntW1, GntW2))", p.NumStates())
	}
	if p.NumEdges() != 18 {
		t.Errorf("NumEdges = %d, want 18", p.NumEdges())
	}
	if len(p.Init()) != 1 {
		t.Errorf("Init = %v, want a single state", p.Init())
	}
	if len(p.Stop()) != 1 {
		t.Errorf("Stop = %v, want a single state", p.Stop())
	}
}

func TestAtomicMutexStateExcluded(t *testing.T) {
	p := twoInstances(t)
	f := p.Instances()[0].Flow
	gntw, _ := f.StateID("GntW")
	if got := p.FindState([]int{gntw, gntw}); got != -1 {
		t.Errorf("illegal state (GntW1, GntW2) present as %d", got)
	}
	init, _ := f.StateID("Init")
	if got := p.FindState([]int{gntw, init}); got == -1 {
		t.Error("legal state (GntW1, Init2) missing")
	}
}

func TestAtomicBlocksOtherFlow(t *testing.T) {
	p := twoInstances(t)
	f := p.Instances()[0].Flow
	gntw, _ := f.StateID("GntW")
	init, _ := f.StateID("Init")
	u := p.FindState([]int{gntw, init})
	out := p.Out(u)
	if len(out) != 1 {
		t.Fatalf("out degree of (GntW1, Init2) = %d, want 1 (only instance 1 may move)", len(out))
	}
	if got := p.Msg(out[0]); got != (flow.IndexedMsg{Name: "Ack", Index: 1}) {
		t.Errorf("only move = %v, want 1:Ack", got)
	}
}

func TestStateName(t *testing.T) {
	p := twoInstances(t)
	if got := p.StateName(p.Init()[0]); got != "(Init1, Init2)" {
		t.Errorf("StateName(init) = %q", got)
	}
}

func TestMessageStatsPaperExample(t *testing.T) {
	p := twoInstances(t)
	stats := p.MessageStats()
	if len(stats) != 6 {
		t.Fatalf("distinct indexed messages = %d, want 6", len(stats))
	}
	total := 0
	for m, st := range stats {
		if st.Count != 3 {
			t.Errorf("occurrences of %v = %d, want 3", m, st.Count)
		}
		targets := 0
		for _, c := range st.Targets {
			targets += c
		}
		if targets != st.Count {
			t.Errorf("%v: target multiplicities %d != count %d", m, targets, st.Count)
		}
		total += st.Count
	}
	if total != 18 {
		t.Errorf("total occurrences = %d, want 18", total)
	}
	// Each indexed message in this product enters 3 distinct states once
	// each (the paper's p(x|y) = 1/3 for each of 3 states).
	gnt1 := stats[flow.IndexedMsg{Name: "GntE", Index: 1}]
	if len(gnt1.Targets) != 3 {
		t.Errorf("1:GntE distinct targets = %d, want 3", len(gnt1.Targets))
	}
}

func TestVisibleStatesPaperExample(t *testing.T) {
	p := twoInstances(t)
	if got := p.VisibleStates(map[string]bool{"ReqE": true, "GntE": true}); got != 11 {
		t.Errorf("visible states of {ReqE, GntE} = %d, want 11 (coverage 11/15 = 0.7333)", got)
	}
	if got := p.VisibleStates(map[string]bool{"ReqE": true, "GntE": true, "Ack": true}); got != 14 {
		// Every non-initial state is entered by some edge.
		t.Errorf("visible states of all messages = %d, want 14", got)
	}
	if got := p.VisibleStates(map[string]bool{}); got != 0 {
		t.Errorf("visible states of empty set = %d, want 0", got)
	}
}

func TestTotalPathsPaperExample(t *testing.T) {
	p := twoInstances(t)
	// Executions are interleavings of the blocks (ReqE), (GntE Ack) per
	// instance — GntE is immediately followed by Ack because GntW is
	// atomic — so C(4,2) = 6.
	if got := p.TotalPaths(); got.Cmp(big.NewInt(6)) != 0 {
		t.Errorf("TotalPaths = %v, want 6", got)
	}
}

// The product is immutable, so TotalPaths counts once, even when its first
// callers race, and every call returns the same shared value.
func TestTotalPathsCountedOncePerProduct(t *testing.T) {
	reg := obs.NewRegistry()
	f := flow.CacheCoherence()
	p, err := NewObserved([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]*big.Int, 3)
	var wg sync.WaitGroup
	for i := range totals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			totals[i] = p.TotalPaths()
		}()
	}
	wg.Wait()
	for i, got := range totals {
		if got != totals[0] || got.Cmp(big.NewInt(6)) != 0 {
			t.Errorf("call %d: TotalPaths = %v (%p), want the shared 6 (%p)", i, got, got, totals[0])
		}
	}
	if got := reg.Snapshot()["interleave.paths_counted"]; got != 1 {
		t.Errorf("interleave.paths_counted = %d after 3 calls, want 1", got)
	}
}

func TestConsistentPathsPaperObservation(t *testing.T) {
	p := twoInstances(t)
	traced := map[string]bool{"ReqE": true, "GntE": true}
	observed := []flow.IndexedMsg{
		{Name: "ReqE", Index: 1},
		{Name: "GntE", Index: 1},
		{Name: "ReqE", Index: 2},
	}
	got, err := p.ConsistentPaths(traced, observed, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("consistent paths = %v, want 1", got)
	}
	loc, err := p.Localization(traced, observed, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 6.0; loc < want-1e-12 || loc > want+1e-12 {
		t.Errorf("localization = %g, want 1/6", loc)
	}
}

func TestConsistentPathsEmptyObservation(t *testing.T) {
	p := twoInstances(t)
	traced := map[string]bool{"ReqE": true}
	got, err := p.ConsistentPaths(traced, nil, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(p.TotalPaths()) != 0 {
		t.Errorf("empty observation should allow all paths: %v vs %v", got, p.TotalPaths())
	}
}

func TestConsistentPathsExactMode(t *testing.T) {
	p := twoInstances(t)
	traced := map[string]bool{"ReqE": true, "GntE": true}
	full := []flow.IndexedMsg{
		{Name: "ReqE", Index: 1},
		{Name: "GntE", Index: 1},
		{Name: "ReqE", Index: 2},
		{Name: "GntE", Index: 2},
	}
	got, err := p.ConsistentPaths(traced, full, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("exact consistent = %v, want 1", got)
	}
	// A strict prefix matches nothing in Exact mode.
	got, err = p.ConsistentPaths(traced, full[:3], Exact)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Errorf("exact with truncated observation = %v, want 0", got)
	}
}

func TestConsistentPathsUntracedObservationError(t *testing.T) {
	p := twoInstances(t)
	_, err := p.ConsistentPaths(map[string]bool{"ReqE": true}, []flow.IndexedMsg{{Name: "Ack", Index: 1}}, Prefix)
	if err == nil {
		t.Fatal("observing an untraced message should fail")
	}
}

func TestConsistentPathsImpossibleObservation(t *testing.T) {
	p := twoInstances(t)
	traced := map[string]bool{"ReqE": true, "GntE": true}
	// GntE before any ReqE of the same instance can never happen.
	observed := []flow.IndexedMsg{{Name: "GntE", Index: 1}, {Name: "ReqE", Index: 1}}
	got, err := p.ConsistentPaths(traced, observed, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Errorf("impossible observation matched %v paths", got)
	}
}

func TestNewRejectsIllegalIndexing(t *testing.T) {
	f := flow.CacheCoherence()
	_, err := New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 1}})
	if err != ErrNotLegallyIndexed {
		t.Fatalf("err = %v, want ErrNotLegallyIndexed", err)
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) should fail")
	}
}

func TestSingleInstanceProductMirrorsFlow(t *testing.T) {
	f := flow.CacheCoherence()
	p, err := New([]flow.Instance{{Flow: f, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != f.NumStates() {
		t.Errorf("states = %d, want %d", p.NumStates(), f.NumStates())
	}
	if p.NumEdges() != len(f.Edges()) {
		t.Errorf("edges = %d, want %d", p.NumEdges(), len(f.Edges()))
	}
	if got := p.TotalPaths(); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("paths = %v, want 1", got)
	}
}

// Without atomic states, the product of linear flows is a full grid and
// path counts are multinomial coefficients.
func TestGridProductPathCount(t *testing.T) {
	a := linearFlow(t, "fa", 4) // 3 edges
	b := linearFlow(t, "fb", 3) // 2 edges
	p, err := New([]flow.Instance{{Flow: a, Index: 1}, {Flow: b, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 12 {
		t.Errorf("states = %d, want 4*3", p.NumStates())
	}
	// C(5,3) = 10 interleavings.
	if got := p.TotalPaths(); got.Cmp(big.NewInt(10)) != 0 {
		t.Errorf("paths = %v, want 10", got)
	}
}

func TestThreeWayProduct(t *testing.T) {
	a := linearFlow(t, "fa", 3)
	b := linearFlow(t, "fb", 3)
	c := linearFlow(t, "fc", 3)
	p, err := New([]flow.Instance{{Flow: a, Index: 1}, {Flow: b, Index: 1}, {Flow: c, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 27 {
		t.Errorf("states = %d, want 27", p.NumStates())
	}
	// Multinomial (6)! / (2!2!2!) = 90.
	if got := p.TotalPaths(); got.Cmp(big.NewInt(90)) != 0 {
		t.Errorf("paths = %v, want 90", got)
	}
}

// The adjacency lists are the product's whole shape: they hold NumEdges
// transitions, each landing on a state in range.
func TestGraphShapeMatchesProduct(t *testing.T) {
	p := twoInstances(t)
	edges := 0
	for u := 0; u < p.NumStates(); u++ {
		for _, e := range p.Out(u) {
			if e.To < 0 || e.To >= p.NumStates() {
				t.Fatalf("edge %d -> %d leaves the %d-state product", u, e.To, p.NumStates())
			}
			edges++
		}
	}
	if edges != p.NumEdges() {
		t.Errorf("adjacency holds %d edges, NumEdges = %d", edges, p.NumEdges())
	}
}

func TestProjectTrace(t *testing.T) {
	trace := []flow.IndexedMsg{
		{Name: "ReqE", Index: 1},
		{Name: "Ack", Index: 1},
		{Name: "GntE", Index: 2},
	}
	got := ProjectTrace(trace, map[string]bool{"ReqE": true, "GntE": true})
	if len(got) != 2 || got[0].Name != "ReqE" || got[1].Name != "GntE" {
		t.Errorf("ProjectTrace = %v", got)
	}
	if out := ProjectTrace(nil, map[string]bool{"x": true}); out != nil {
		t.Errorf("ProjectTrace(nil) = %v", out)
	}
}

func TestTupleAccessor(t *testing.T) {
	p := twoInstances(t)
	u := p.Init()[0]
	tu := p.Tuple(u)
	f := p.Instances()[0].Flow
	init, _ := f.StateID("Init")
	if len(tu) != 2 || tu[0] != init || tu[1] != init {
		t.Errorf("Tuple(init) = %v", tu)
	}
}

func TestFindStateArityMismatch(t *testing.T) {
	p := twoInstances(t)
	if got := p.FindState([]int{0}); got != -1 {
		t.Errorf("FindState with wrong arity = %d, want -1", got)
	}
}

// Three legally indexed instances of the toy flow: the mutex set excludes
// every tuple with two or more GntW components, and executions are the
// interleavings of three (ReqE)(GntE·Ack) block sequences.
func TestThreeInstanceAtomicProduct(t *testing.T) {
	f := flow.CacheCoherence()
	p, err := New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}, {Flow: f, Index: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// 4^3 = 64 tuples minus those with >= 2 atomic components:
	// C(3,2)*4 - 2 (inclusion-exclusion for the triple) = 10 -> 54.
	if p.NumStates() != 54 {
		t.Errorf("NumStates = %d, want 54", p.NumStates())
	}
	gntw, _ := f.StateID("GntW")
	for u := 0; u < p.NumStates(); u++ {
		atomic := 0
		for _, s := range p.Tuple(u) {
			if s == gntw {
				atomic++
			}
		}
		if atomic > 1 {
			t.Fatalf("state %s has %d atomic components", p.StateName(u), atomic)
		}
	}
	// Interleavings of three 2-block sequences: 6!/(2!2!2!) = 90.
	if got := p.TotalPaths(); got.Cmp(big.NewInt(90)) != 0 {
		t.Errorf("TotalPaths = %v, want 90", got)
	}
}

func TestExecutionsEnumeration(t *testing.T) {
	p := twoInstances(t)
	count := 0
	var traces [][]flow.IndexedMsg
	p.Executions(func(e Execution) bool {
		count++
		tr := e.Trace(p)
		cp := make([]flow.IndexedMsg, len(tr))
		copy(cp, tr)
		traces = append(traces, cp)
		return true
	})
	if count != 6 {
		t.Fatalf("enumerated %d executions, want 6 (= TotalPaths)", count)
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if len(tr) != 6 {
			t.Errorf("execution trace length %d, want 6", len(tr))
		}
		key := fmt.Sprint(tr)
		if seen[key] {
			t.Errorf("duplicate execution %v", tr)
		}
		seen[key] = true
	}
}

func TestExecutionsEarlyStop(t *testing.T) {
	p := twoInstances(t)
	n := 0
	p.Executions(func(Execution) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d executions", n)
	}
}

func TestRandomExecution(t *testing.T) {
	p := twoInstances(t)
	rng := rand.New(rand.NewSource(5))
	isStop := map[int]bool{}
	for _, s := range p.Stop() {
		isStop[s] = true
	}
	for i := 0; i < 20; i++ {
		ex := p.RandomExecution(rng)
		if len(ex.Edges) != 6 {
			t.Fatalf("random execution has %d edges, want 6", len(ex.Edges))
		}
		if !isStop[ex.States[len(ex.States)-1]] {
			t.Fatal("random execution does not end at a stop state")
		}
		// Its trace must be consistent with itself (exact match, 1 path).
		traced := map[string]bool{"ReqE": true, "GntE": true, "Ack": true}
		c, err := p.ConsistentPaths(traced, ex.Trace(p), Exact)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("sampled execution matches %v paths, want exactly 1", c)
		}
	}
}

// Stripping instance tags weakens localization: the paper's observation
// {1:ReqE, 1:GntE, 2:ReqE} pins one execution, while the untagged
// {ReqE, GntE, ReqE} leaves several consistent.
func TestConsistentPathsUnindexed(t *testing.T) {
	p := twoInstances(t)
	traced := map[string]bool{"ReqE": true, "GntE": true}
	tagged := []flow.IndexedMsg{
		{Name: "ReqE", Index: 1}, {Name: "GntE", Index: 1}, {Name: "ReqE", Index: 2},
	}
	ct, err := p.ConsistentPaths(traced, tagged, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := p.ConsistentPathsUnindexed(traced, []string{"ReqE", "GntE", "ReqE"}, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("tagged = %v, want 1", ct)
	}
	if cu.Cmp(ct) <= 0 {
		t.Errorf("untagged localization (%v) should be weaker than tagged (%v)", cu, ct)
	}
	// Untagged (ReqE GntE ReqE ...) is the prefix of both symmetric
	// executions: 1-then-2 and 2-then-1.
	if cu.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("untagged = %v, want 2", cu)
	}
	if _, err := p.ConsistentPathsUnindexed(traced, []string{"Ack"}, Prefix); err == nil {
		t.Error("untraced observation accepted")
	}
}

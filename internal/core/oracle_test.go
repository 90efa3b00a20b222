package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/info"
	"tracescale/internal/interleave"
	"tracescale/internal/opensparc"
	"tracescale/internal/synth"
)

// The materialized reference: the evaluator's statistics computed by
// walking every edge of the built product, the way NewEvaluator computed
// them before the closed forms replaced it. The differential tests below
// pin the closed forms against it.

// msgStat is one indexed message's occurrence statistics with every map
// flattened into sorted slices, so downstream float summation runs in a
// fixed order.
type msgStat struct {
	msg     flow.IndexedMsg
	count   int
	targets []targetCount // ascending by state
}

type targetCount struct {
	state int
	count int
}

// sortedStats flattens interleave.MessageStats into deterministic order:
// messages ascending by (Name, Index), each message's target states
// ascending.
func sortedStats(stats map[flow.IndexedMsg]*interleave.MsgStat) []msgStat {
	out := make([]msgStat, 0, len(stats))
	for im, st := range stats {
		ms := msgStat{msg: im, count: st.Count, targets: make([]targetCount, 0, len(st.Targets))}
		for state, c := range st.Targets {
			ms.targets = append(ms.targets, targetCount{state: state, count: c})
		}
		sort.Slice(ms.targets, func(a, b int) bool { return ms.targets[a].state < ms.targets[b].state })
		out = append(out, ms)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].msg.Name != out[b].msg.Name {
			return out[a].msg.Name < out[b].msg.Name
		}
		return out[a].msg.Index < out[b].msg.Index
	})
	return out
}

// materialized is the reference statistics over a built product, indexed
// like the evaluator's universe.
type materialized struct {
	totalOcc int
	gainOf   []float64
}

// materialize walks p's edges: MessageStats → sortedStats → per-target
// accumulation for the gains. Coverage's reference is the product's own
// VisibleStates.
func materialize(t *testing.T, p *interleave.Product, universe map[string]int) *materialized {
	t.Helper()
	m := &materialized{gainOf: make([]float64, len(universe))}
	stats := sortedStats(p.MessageStats())
	for _, st := range stats {
		m.totalOcc += st.count
	}
	px := 1.0 / float64(p.NumStates())
	for _, st := range stats {
		i, ok := universe[st.msg.Name]
		if !ok {
			t.Fatalf("product edge labeled with unknown message %q", st.msg.Name)
		}
		py := float64(st.count) / float64(m.totalOcc)
		var acc info.Accumulator
		for _, tc := range st.targets {
			acc.Add(py*float64(tc.count)/float64(st.count), px, py)
		}
		m.gainOf[i] += acc.Value()
	}
	return m
}

// oracleSet is one instance set of the differential sweep.
type oracleSet struct {
	name  string
	insts []flow.Instance
}

// multiInitFlow has two initial states feeding one atomic state, so the
// product seeds from a cross product of initial tuples.
func multiInitFlow(t *testing.T) *flow.Flow {
	t.Helper()
	b := flow.NewBuilder("multiinit")
	b.States("a", "b", "mid", "lock", "done")
	b.Init("a", "b")
	b.Stop("done")
	b.Atomic("lock")
	b.Message(flow.Message{Name: "Go", Width: 2, Src: "X", Dst: "Y"})
	b.Message(flow.Message{Name: "Alt", Width: 3, Src: "X", Dst: "Y"})
	b.Message(flow.Message{Name: "Take", Width: 1, Src: "Y", Dst: "X"})
	b.Message(flow.Message{Name: "Rel", Width: 2, Src: "Y", Dst: "X"})
	b.Edge("a", "mid", "Go")
	b.Edge("b", "mid", "Alt")
	b.Edge("b", "lock", "Take")
	b.Edge("mid", "lock", "Take")
	b.Edge("lock", "done", "Rel")
	b.Edge("mid", "done", "Rel")
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// oracleSets is the sweep: the T2 scenarios (atomic Mondo states and the
// shared siincu), replicated cache coherence, the asymmetric hot-flow set,
// branching synthetic scenarios with packing groups, replicated synthetic
// flows, and a multi-init flow.
func oracleSets(t *testing.T) []oracleSet {
	t.Helper()
	var sets []oracleSet
	for id := 1; id <= 3; id++ {
		s, err := opensparc.ScenarioByID(id)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, oracleSet{fmt.Sprintf("t2-scenario-%d", id), s.Instances()})
	}
	cc := flow.CacheCoherence()
	for k := 1; k <= 6; k++ {
		insts := make([]flow.Instance, k)
		for i := range insts {
			insts[i] = flow.Instance{Flow: cc, Index: i + 1}
		}
		sets = append(sets, oracleSet{fmt.Sprintf("cc-x%d", k), insts})
	}
	sets = append(sets, oracleSet{"hot-asymmetric", asymmetricProduct(t).Instances()})
	for seed := int64(1); seed <= 20; seed++ {
		insts, err := synth.Scenario(3, synth.Params{States: 5, Branch: 0.4, MaxWidth: 6, GroupProb: 0.3}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, oracleSet{fmt.Sprintf("synth-seed-%d", seed), insts})
	}
	for _, k := range []int{2, 4, 6} {
		insts, err := synth.Replicated(k, synth.Params{States: 5, Branch: 0.3}, rand.New(rand.NewSource(int64(k))))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, oracleSet{fmt.Sprintf("replicated-x%d", k), insts})
	}
	mi := multiInitFlow(t)
	sets = append(sets, oracleSet{"multi-init", []flow.Instance{{Flow: mi, Index: 1}, {Flow: mi, Index: 2}, {Flow: flow.CacheCoherence(), Index: 1}}})
	return sets
}

// TestEvaluatorMatchesMaterializedOracle pins the closed forms against the
// product walk: state and edge totals and per-message visible counts
// exactly, Coverage bit-identical on random combinations, and gains within
// 1e-12 relative (the closed form sums per multiplicity bucket instead of
// per target state, so only float summation order differs).
func TestEvaluatorMatchesMaterializedOracle(t *testing.T) {
	for _, set := range oracleSets(t) {
		t.Run(set.name, func(t *testing.T) {
			e, err := Analyze(set.insts, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := interleave.New(set.insts)
			if err != nil {
				t.Fatal(err)
			}
			m := materialize(t, p, e.byName)
			if e.NumStates() != p.NumStates() {
				t.Fatalf("closed-form |S| = %d, product has %d", e.NumStates(), p.NumStates())
			}
			if e.totalOcc != p.NumEdges() || m.totalOcc != p.NumEdges() {
				t.Fatalf("edge totals: closed form %d, materialized %d, product %d", e.totalOcc, m.totalOcc, p.NumEdges())
			}
			for i, msg := range e.universe {
				if got, want := e.visibleStates(e.visibleOf[i]), p.VisibleStates(map[string]bool{msg.Name: true}); got != want {
					t.Errorf("%s: %d visible states, product %d", msg.Name, got, want)
				}
				got, want := e.gainOf[i], m.gainOf[i]
				if math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Errorf("%s: gain %v, materialized %v (rel %.3g)", msg.Name, got, want, math.Abs(got-want)/math.Abs(want))
				}
			}
			rng := rand.New(rand.NewSource(1))
			for trial := 0; trial < 50; trial++ {
				var names []string
				set := make(map[string]bool)
				for _, msg := range e.universe {
					if rng.Intn(3) == 0 {
						names = append(names, msg.Name)
						set[msg.Name] = true
					}
				}
				got, err := e.Coverage(names)
				if err != nil {
					t.Fatal(err)
				}
				if want := float64(p.VisibleStates(set)) / float64(p.NumStates()); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Coverage(%v) = %v, materialized %v", names, got, want)
				}
			}
		})
	}
}

// TestToyGainBitIdentical pins the paper's worked example bit for bit:
// every target of ReqE and GntE has multiplicity one, so the bucket form
// 3·term equals the per-target sum term+term+term exactly.
func TestToyGainBitIdentical(t *testing.T) {
	e := paperEvaluator(t)
	g, err := e.Gain([]string{"ReqE", "GntE"})
	if err != nil {
		t.Fatal(err)
	}
	if g != 1.0729586082894003 {
		t.Errorf("Gain({ReqE, GntE}) = %v, want exactly 1.0729586082894003", g)
	}
}

// TestSelectionsMatchOracleGains runs every Step-2 strategy at widths 1–48,
// packing on and off, on the closed-form evaluator and on a copy whose
// gains are overwritten with the materialized ones: the closed form's
// float-order differences must never flip a selection.
func TestSelectionsMatchOracleGains(t *testing.T) {
	if testing.Short() {
		t.Skip("differential selection sweep")
	}
	methods := []Method{Exhaustive, Knapsack, BranchBound, Greedy}
	for _, set := range oracleSets(t) {
		t.Run(set.name, func(t *testing.T) {
			t.Parallel()
			e, err := Analyze(set.insts, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := interleave.New(set.insts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Analyze(set.insts, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.gainOf = materialize(t, p, ref.byName).gainOf
			for _, method := range methods {
				for width := 1; width <= 48; width++ {
					for _, noPack := range []bool{false, true} {
						cfg := Config{BufferWidth: width, Method: method, DisablePacking: noPack, Workers: 1}
						got, gotErr := Select(e, cfg)
						want, wantErr := Select(ref, cfg)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%+v: error %v, oracle error %v", cfg, gotErr, wantErr)
						}
						if gotErr != nil {
							continue
						}
						if !gainsClose(got, want) {
							t.Fatalf("%+v: gains %v/%v, oracle %v/%v", cfg, got.Gain, got.SelectedGain, want.Gain, want.SelectedGain)
						}
						got2, want2 := *got, *want
						got2.Gain, got2.SelectedGain, want2.Gain, want2.SelectedGain = 0, 0, 0, 0
						if !reflect.DeepEqual(got2, want2) {
							t.Fatalf("%+v: selection %+v, oracle %+v", cfg, got2, want2)
						}
					}
				}
			}
		})
	}
}

func gainsClose(a, b *Result) bool {
	close := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(y), 1e-300) }
	return close(a.Gain, b.Gain) && close(a.SelectedGain, b.SelectedGain)
}

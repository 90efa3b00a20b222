package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// paperEvaluator returns the evaluator for the paper's running example:
// two indexed instances of the toy cache-coherence flow, 2-bit buffer.
func paperEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	f := flow.CacheCoherence()
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestUniverseDeduplicatesAcrossInstances(t *testing.T) {
	e := paperEvaluator(t)
	if got := len(e.Universe()); got != 3 {
		t.Fatalf("universe = %d messages, want 3", got)
	}
	m, ok := e.MessageByName("ReqE")
	if !ok || m.Width != 1 {
		t.Errorf("MessageByName(ReqE) = %v, %v", m, ok)
	}
	if _, ok := e.MessageByName("nope"); ok {
		t.Error("found nonexistent message")
	}
}

func TestGainPaperExample(t *testing.T) {
	e := paperEvaluator(t)
	g, err := e.Gain([]string{"ReqE", "GntE"})
	if err != nil {
		t.Fatal(err)
	}
	want := 12.0 * (1.0 / 18) * math.Log(5) // = 1.0729 nats, the paper's 1.073
	if math.Abs(g-want) > 1e-9 {
		t.Errorf("Gain = %.6f, want %.6f", g, want)
	}
}

func TestGainDuplicatesCountOnce(t *testing.T) {
	e := paperEvaluator(t)
	g1, _ := e.Gain([]string{"ReqE"})
	g2, err := e.Gain([]string{"ReqE", "ReqE"})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Errorf("duplicate message changed gain: %g vs %g", g1, g2)
	}
}

func TestGainUnknownMessage(t *testing.T) {
	e := paperEvaluator(t)
	if _, err := e.Gain([]string{"nope"}); err == nil {
		t.Fatal("unknown message should fail")
	}
	if _, err := e.Coverage([]string{"nope"}); err == nil {
		t.Fatal("unknown message should fail")
	}
	if _, err := e.Width([]string{"nope"}); err == nil {
		t.Fatal("unknown message should fail")
	}
}

func TestCoveragePaperExample(t *testing.T) {
	e := paperEvaluator(t)
	c, err := e.Coverage([]string{"ReqE", "GntE"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-11.0/15) > 1e-12 {
		t.Errorf("Coverage = %.6f, want 0.7333", c)
	}
}

func TestWidth(t *testing.T) {
	e := paperEvaluator(t)
	w, err := e.Width([]string{"ReqE", "GntE", "Ack"})
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 {
		t.Errorf("Width = %d, want 3", w)
	}
}

// Gain additivity is the structural fact the scalable selectors rely on.
func TestGainAdditivityProperty(t *testing.T) {
	e := paperEvaluator(t)
	names := []string{"ReqE", "GntE", "Ack"}
	f := func(mask uint8) bool {
		var subset []string
		want := 0.0
		for i, n := range names {
			if mask&(1<<i) != 0 {
				subset = append(subset, n)
				g, err := e.Gain([]string{n})
				if err != nil {
					return false
				}
				want += g
			}
		}
		got, err := e.Gain(subset)
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectExhaustivePaperExample(t *testing.T) {
	e := paperEvaluator(t)
	res, err := Select(e, Config{BufferWidth: 2, KeepCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: of the 7 nonempty combinations, 6 fit in 2 bits.
	if len(res.Candidates) != 6 {
		t.Errorf("candidates = %d, want 6", len(res.Candidates))
	}
	// Step 2: the paper selects Y1' = {ReqE, GntE} with I = 1.073.
	if got := strings.Join(res.Selected, ","); got != "ReqE,GntE" {
		t.Errorf("Selected = %q, want ReqE,GntE", got)
	}
	if math.Abs(res.Gain-1.0729) > 1e-3 {
		t.Errorf("Gain = %.4f, want 1.073", res.Gain)
	}
	if math.Abs(res.Coverage-0.7333) > 1e-3 {
		t.Errorf("Coverage = %.4f, want 0.7333", res.Coverage)
	}
	if res.Width != 2 || res.Utilization != 1.0 {
		t.Errorf("Width, Utilization = %d, %g; want 2, 1.0", res.Width, res.Utilization)
	}
	if len(res.Packed) != 0 {
		t.Errorf("Packed = %v, want none (buffer already full)", res.Packed)
	}
}

func TestSelectMethodsAgreeOnGain(t *testing.T) {
	e := paperEvaluator(t)
	ex, err := Select(e, Config{BufferWidth: 2, Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := Select(e, Config{BufferWidth: 2, Method: Knapsack})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex.SelectedGain-kn.SelectedGain) > 1e-12 {
		t.Errorf("knapsack gain %.6f != exhaustive gain %.6f", kn.SelectedGain, ex.SelectedGain)
	}
	gr, err := Select(e, Config{BufferWidth: 2, Method: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if gr.SelectedGain > ex.SelectedGain+1e-12 {
		t.Errorf("greedy gain %.6f exceeds optimum %.6f", gr.SelectedGain, ex.SelectedGain)
	}
}

func TestSelectConfigErrors(t *testing.T) {
	e := paperEvaluator(t)
	if _, err := Select(e, Config{BufferWidth: 0}); err == nil {
		t.Error("zero buffer width should fail")
	}
	if _, err := Select(e, Config{BufferWidth: 2, Method: Method(99)}); err == nil {
		t.Error("unknown method should fail")
	}
	if _, err := Select(e, Config{BufferWidth: 2, MaxCandidates: 4}); err == nil {
		t.Error("exceeding MaxCandidates should fail")
	}
}

func TestMethodString(t *testing.T) {
	if Exhaustive.String() != "exhaustive" || Knapsack.String() != "knapsack" || Greedy.String() != "greedy" {
		t.Error("Method.String mismatch")
	}
	if got := Method(7).String(); !strings.Contains(got, "7") {
		t.Errorf("unknown method string = %q", got)
	}
}

// wideFlow exercises packing: a 2-bit header always fits, a 6-bit payload
// with 2- and 3-bit subgroups does not fit alongside it in a 4-bit buffer.
func wideFlow(t *testing.T) *Evaluator {
	t.Helper()
	b := flow.NewBuilder("wide")
	b.States("s0", "s1", "s2")
	b.Init("s0")
	b.Stop("s2")
	b.Message(flow.Message{Name: "hdr", Width: 2, Src: "A", Dst: "B"})
	b.Message(flow.Message{Name: "payload", Width: 6, Src: "B", Dst: "A", Groups: []flow.Group{
		{Name: "lo", Width: 2},
		{Name: "hi", Width: 3},
	}})
	b.Edge("s0", "s1", "hdr")
	b.Edge("s1", "s2", "payload")
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPackingFillsLeftoverBuffer(t *testing.T) {
	e := wideFlow(t)
	res, err := Select(e, Config{BufferWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Step 2 can only afford hdr (2 bits); payload (6 bits) is too wide.
	if got := strings.Join(res.Selected, ","); got != "hdr" {
		t.Fatalf("Selected = %q, want hdr", got)
	}
	if res.SelectedWidth != 2 {
		t.Errorf("SelectedWidth = %d, want 2", res.SelectedWidth)
	}
	// Step 3 should pack payload.lo (2 bits): hi (3 bits) does not fit.
	if len(res.Packed) != 1 || res.Packed[0].Group != "lo" {
		t.Fatalf("Packed = %v, want payload.lo", res.Packed)
	}
	if res.Width != 4 || res.Utilization != 1.0 {
		t.Errorf("Width = %d, Utilization = %g; want 4, 1.0", res.Width, res.Utilization)
	}
	// Packing makes payload observable: coverage and gain improve.
	if res.Gain <= res.SelectedGain {
		t.Errorf("packing did not improve gain: %g <= %g", res.Gain, res.SelectedGain)
	}
	if res.Coverage <= res.SelectedCoverage {
		t.Errorf("packing did not improve coverage: %g <= %g", res.Coverage, res.SelectedCoverage)
	}
	traced := res.TracedNames()
	if len(traced) != 2 {
		t.Errorf("TracedNames = %v, want hdr+payload", traced)
	}
}

func TestPackingPrefersWiderGroupOnGainTie(t *testing.T) {
	e := wideFlow(t)
	res, err := Select(e, Config{BufferWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Leftover is 3 bits; both groups' parent is the same message so the
	// first pick is by gain (both positive, equal) and then width: hi (3).
	if len(res.Packed) != 1 || res.Packed[0].Group != "hi" {
		t.Fatalf("Packed = %v, want payload.hi", res.Packed)
	}
	if res.Width != 5 {
		t.Errorf("Width = %d, want 5", res.Width)
	}
}

func TestPackingZeroGainGroupsStillFillBuffer(t *testing.T) {
	e := wideFlow(t)
	res, err := Select(e, Config{BufferWidth: 7})
	if err != nil {
		t.Fatal(err)
	}
	// hdr (2) + payload.hi (3) + payload.lo (2): the second group of the
	// same parent adds zero gain but fills the buffer to 7/7.
	if res.Width != 7 || len(res.Packed) != 2 {
		t.Errorf("Width = %d Packed = %v, want width 7 with both groups", res.Width, res.Packed)
	}
}

// A subgroup of an already-selected message is a legitimate packing
// granule: it adds zero gain but fills otherwise-dead buffer bits. Here
// sel (4 bits, with a 2-bit subgroup) and tiny (1 bit) are both selected
// into a 7-bit buffer; the only granule that fits the 2 leftover bits is
// sel's own subgroup, so packing it is the only way to reach 100%
// utilization.
func TestPackingSubgroupOfSelectedMessage(t *testing.T) {
	b := flow.NewBuilder("selfpack")
	b.States("s0", "s1", "s2")
	b.Init("s0")
	b.Stop("s2")
	b.Message(flow.Message{Name: "sel", Width: 4, Src: "A", Dst: "B", Groups: []flow.Group{
		{Name: "half", Width: 2},
	}})
	b.Message(flow.Message{Name: "tiny", Width: 1, Src: "B", Dst: "A"})
	b.Edge("s0", "s1", "sel")
	b.Edge("s1", "s2", "tiny")
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Select(e, Config{BufferWidth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Selected, ","); got != "sel,tiny" {
		t.Fatalf("Selected = %q, want sel,tiny", got)
	}
	if len(res.Packed) != 1 || res.Packed[0].Message != "sel" || res.Packed[0].Group != "half" {
		t.Fatalf("Packed = %v, want sel.half", res.Packed)
	}
	if res.Width != 7 || res.Utilization != 1.0 {
		t.Errorf("Width = %d, Utilization = %g; want 7, 1.0", res.Width, res.Utilization)
	}
	// The packed subgroup's parent was already observable: no gain or
	// coverage change over the bare selection.
	if res.Gain != res.SelectedGain || res.Coverage != res.SelectedCoverage {
		t.Errorf("zero-gain packing changed scores: gain %g->%g cov %g->%g",
			res.SelectedGain, res.Gain, res.SelectedCoverage, res.Coverage)
	}
}

func TestDisablePacking(t *testing.T) {
	e := wideFlow(t)
	res, err := Select(e, Config{BufferWidth: 4, DisablePacking: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packed) != 0 || res.Width != 2 {
		t.Errorf("WoP: Packed = %v Width = %d, want none, 2", res.Packed, res.Width)
	}
	if res.Utilization != 0.5 {
		t.Errorf("Utilization = %g, want 0.5", res.Utilization)
	}
}

func TestSelectNoMessageFits(t *testing.T) {
	e := wideFlow(t)
	if _, err := Select(e, Config{BufferWidth: 1}); err == nil {
		t.Error("exhaustive: no message fits should fail")
	}
	if _, err := Select(e, Config{BufferWidth: 1, Method: Knapsack}); err == nil {
		t.Error("knapsack: no message fits should fail")
	}
	if _, err := Select(e, Config{BufferWidth: 1, Method: Greedy}); err == nil {
		t.Error("greedy: no message fits should fail")
	}
}

func TestNewEvaluatorConflictingMessage(t *testing.T) {
	mk := func(name string, width int) *flow.Flow {
		b := flow.NewBuilder(name)
		b.States("a", "b")
		b.Init("a")
		b.Stop("b")
		b.Message(flow.Message{Name: "shared", Width: width, Src: "X", Dst: "Y"})
		b.Edge("a", "b", "shared")
		f, err := b.Build()
		if err != nil {
			panic(err)
		}
		return f
	}
	p, err := interleave.New([]flow.Instance{
		{Flow: mk("f1", 1), Index: 1},
		{Flow: mk("f2", 2), Index: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(p); err == nil {
		t.Fatal("conflicting message widths should fail")
	}
}

// Coverage is monotone: supersets never cover fewer states.
func TestCoverageMonotonicityProperty(t *testing.T) {
	e := paperEvaluator(t)
	names := []string{"ReqE", "GntE", "Ack"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(3)
		sub := append([]string{}, names[:k]...)
		super := append([]string{}, names[:k+1]...)
		cs, err1 := e.Coverage(sub)
		cb, err2 := e.Coverage(super)
		return err1 == nil && err2 == nil && cb >= cs-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Exhaustive and knapsack must agree on random flow families.
func TestKnapsackMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random linear flow with 3-6 messages of width 1-6.
		n := 3 + rng.Intn(4)
		b := flow.NewBuilder("rnd")
		states := make([]string, n+1)
		for i := range states {
			states[i] = "s" + string(rune('0'+i))
		}
		b.States(states...)
		b.Init(states[0])
		b.Stop(states[n])
		msgs := make([]string, n)
		for i := range msgs {
			msgs[i] = "m" + string(rune('0'+i))
			b.Message(flow.Message{Name: msgs[i], Width: 1 + rng.Intn(6)})
		}
		b.Chain(states, msgs)
		fl, err := b.Build()
		if err != nil {
			return false
		}
		p, err := interleave.New([]flow.Instance{{Flow: fl, Index: 1}, {Flow: fl, Index: 2}})
		if err != nil {
			return false
		}
		e, err := NewEvaluator(p)
		if err != nil {
			return false
		}
		budget := 2 + rng.Intn(10)
		ex, errE := Select(e, Config{BufferWidth: budget, Method: Exhaustive, DisablePacking: true})
		kn, errK := Select(e, Config{BufferWidth: budget, Method: Knapsack, DisablePacking: true})
		if errE != nil || errK != nil {
			// Both must fail together (no message fits).
			return (errE == nil) == (errK == nil)
		}
		// Equal gain; the tie-break is a heuristic, never above
		// exhaustive's coverage.
		return math.Abs(ex.SelectedGain-kn.SelectedGain) < 1e-9 && kn.SelectedCoverage <= ex.SelectedCoverage
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Packing invariants on generated flow families: never exceeds the
// budget, packs each group at most once, and never loses gain or coverage
// relative to the bare selection. Groups of already-selected messages are
// legitimate packing granules (zero marginal gain, pure utilization).
func TestPackingInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := flow.NewBuilder("pp")
		n := 4 + rng.Intn(3)
		states := make([]string, n+1)
		for i := range states {
			states[i] = "s" + string(rune('0'+i))
		}
		b.States(states...)
		b.Init(states[0])
		b.Stop(states[n])
		msgs := make([]string, n)
		for i := range msgs {
			msgs[i] = "m" + string(rune('0'+i))
			width := 2 + rng.Intn(12)
			m := flow.Message{Name: msgs[i], Width: width}
			if width > 3 && rng.Intn(2) == 0 {
				m.Groups = []flow.Group{
					{Name: "ga", Width: 1 + rng.Intn(width/2)},
					{Name: "gb", Width: 1 + rng.Intn(width/2)},
				}
			}
			b.Message(m)
		}
		b.Chain(states, msgs)
		fl, err := b.Build()
		if err != nil {
			return false
		}
		p, err := interleave.New([]flow.Instance{{Flow: fl, Index: 1}, {Flow: fl, Index: 2}})
		if err != nil {
			return false
		}
		e, err := NewEvaluator(p)
		if err != nil {
			return false
		}
		budget := 4 + rng.Intn(20)
		res, err := Select(e, Config{BufferWidth: budget})
		if err != nil {
			return true // nothing fits: acceptable
		}
		if res.Width > budget {
			return false
		}
		seen := map[string]bool{}
		for _, g := range res.Packed {
			key := g.Message + "." + g.Group
			if seen[key] {
				return false // packed the same group twice
			}
			seen[key] = true
		}
		// Gain/coverage of the traced set dominate the bare selection.
		return res.Gain >= res.SelectedGain-1e-12 && res.Coverage >= res.SelectedCoverage-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

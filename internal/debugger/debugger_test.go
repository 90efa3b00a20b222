package debugger

import (
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/inject"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
)

// testbed: a two-flow universe with messages a1->a2->a3 (flow A) and
// b1->b2 (flow B), IPs X, Y, Z.
func testFlows(t *testing.T) (fa, fb *flow.Flow, universe []flow.Message) {
	t.Helper()
	universe = []flow.Message{
		{Name: "a1", Width: 4, Src: "X", Dst: "Y"},
		{Name: "a2", Width: 4, Src: "Y", Dst: "Z"},
		{Name: "a3", Width: 4, Src: "Z", Dst: "X"},
		{Name: "b1", Width: 4, Src: "X", Dst: "Z"},
		{Name: "b2", Width: 4, Src: "Z", Dst: "X"},
	}
	ba := flow.NewBuilder("A")
	ba.States("s0", "s1", "s2", "s3")
	ba.Init("s0")
	ba.Stop("s3")
	for _, m := range universe[:3] {
		ba.Message(m)
	}
	ba.Chain([]string{"s0", "s1", "s2", "s3"}, []string{"a1", "a2", "a3"})
	var err error
	fa, err = ba.Build()
	if err != nil {
		t.Fatal(err)
	}
	bb := flow.NewBuilder("B")
	bb.States("t0", "t1", "t2")
	bb.Init("t0")
	bb.Stop("t2")
	for _, m := range universe[3:] {
		bb.Message(m)
	}
	bb.Chain([]string{"t0", "t1", "t2"}, []string{"b1", "b2"})
	fb, err = bb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return fa, fb, universe
}

func runPair(t *testing.T, fa, fb *flow.Flow, bugs ...inject.Bug) (golden, buggy *soc.Result) {
	t.Helper()
	sc := soc.Scenario{Name: "t", Launches: append(
		soc.Repeat(fa, 5, 1, 0, 4),
		soc.Repeat(fb, 5, 1, 2, 4)...)}
	var err error
	golden, err = soc.Run(sc, soc.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	buggy, err = soc.Run(sc, soc.Config{Seed: 11, Injectors: inject.Injectors(bugs...)})
	if err != nil {
		t.Fatal(err)
	}
	return golden, buggy
}

func allTraced() map[string]bool {
	return map[string]bool{"a1": true, "a2": true, "a3": true, "b1": true, "b2": true}
}

func TestObserveCleanRunAllNormal(t *testing.T) {
	fa, fb, _ := testFlows(t)
	golden, _ := runPair(t, fa, fb)
	obs := Observe(golden, golden, allTraced())
	for name, st := range obs.Global {
		if st != Normal {
			t.Errorf("%s global = %v, want normal", name, st)
		}
	}
	if obs.FocusIndex != -1 {
		t.Errorf("FocusIndex = %d, want -1 (no symptom)", obs.FocusIndex)
	}
	if len(obs.AffectedMessages()) != 0 {
		t.Errorf("affected = %v, want none", obs.AffectedMessages())
	}
}

func TestObserveDropBug(t *testing.T) {
	fa, fb, _ := testFlows(t)
	golden, buggy := runPair(t, fa, fb, inject.Bug{ID: 1, Kind: inject.Drop, Target: "a2", AfterIndex: 3})
	obs := Observe(golden, buggy, allTraced())
	if obs.Global["a2"] != Reduced {
		t.Errorf("a2 global = %v, want reduced (instances 3-5 dropped)", obs.Global["a2"])
	}
	if obs.Global["a3"] != Reduced {
		t.Errorf("a3 global = %v, want reduced (downstream of wedge)", obs.Global["a3"])
	}
	if obs.Global["a1"] != Normal || obs.Global["b1"] != Normal {
		t.Errorf("unaffected messages classified: a1=%v b1=%v", obs.Global["a1"], obs.Global["b1"])
	}
	if obs.FocusIndex != 3 {
		t.Errorf("FocusIndex = %d, want 3 (first wedged instance)", obs.FocusIndex)
	}
	if obs.Focused["a2"] != Missing {
		t.Errorf("a2 focused = %v, want missing", obs.Focused["a2"])
	}
	if obs.Focused["a1"] != Normal {
		t.Errorf("a1 focused = %v, want normal", obs.Focused["a1"])
	}
	got := obs.AffectedMessages()
	if len(got) != 2 || got[0] != "a2" || got[1] != "a3" {
		t.Errorf("affected = %v, want [a2 a3]", got)
	}
}

func TestObserveCorruptBug(t *testing.T) {
	fa, fb, _ := testFlows(t)
	golden, buggy := runPair(t, fa, fb, inject.Bug{ID: 2, Kind: inject.Corrupt, Target: "b1", XorMask: 0x3})
	obs := Observe(golden, buggy, allTraced())
	if obs.Global["b1"] != Corrupt {
		t.Errorf("b1 = %v, want corrupt", obs.Global["b1"])
	}
	if obs.Global["b2"] != Corrupt {
		t.Errorf("b2 = %v, want corrupt (poison propagates downstream)", obs.Global["b2"])
	}
	if obs.Global["a1"] != Normal {
		t.Errorf("a1 = %v, want normal (other flow unaffected)", obs.Global["a1"])
	}
}

func TestPredMatches(t *testing.T) {
	cases := []struct {
		p    Pred
		s    Status
		want bool
	}{
		{AnyStatus, Missing, true},
		{IsMissing, Missing, true},
		{IsMissing, Reduced, false},
		{IsAbsent, Reduced, true},
		{IsAbsent, Normal, false},
		{IsNormal, Normal, true},
		{IsNormal, Corrupt, false},
		{IsCorrupt, Corrupt, true},
		{IsCorrupt, Missing, false},
		{IsReduced, Reduced, true},
		{IsReduced, Missing, false},
		{IsPresent, Reduced, true},
		{IsPresent, Corrupt, true},
		{IsPresent, Missing, false},
		{Pred(99), Normal, false},
	}
	for _, tc := range cases {
		if got := tc.p.Matches(tc.s); got != tc.want {
			t.Errorf("Pred(%d).Matches(%v) = %v, want %v", tc.p, tc.s, got, tc.want)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		Normal: "normal", Missing: "missing", Reduced: "reduced",
		Corrupt: "corrupt", Extra: "extra", Status(42): "unknown",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
	if Normal.Affected() || !Missing.Affected() {
		t.Error("Affected misclassifies")
	}
}

func TestDebugEliminatesContradictedCauses(t *testing.T) {
	fa, fb, universe := testFlows(t)
	golden, buggy := runPair(t, fa, fb, inject.Bug{ID: 1, IP: "Y", Kind: inject.Drop, Target: "a2"})
	traced := allTraced()
	obs := Observe(golden, buggy, traced)

	causes := []Cause{
		{ID: 1, IP: "Y", Function: "a2 forwarding broken",
			Signature: map[string]Pred{"a1": IsPresent, "a2": IsMissing}},
		{ID: 2, IP: "Z", Function: "a3 generation broken",
			Signature: map[string]Pred{"a2": IsPresent, "a3": IsMissing}},
		{ID: 3, IP: "X", Function: "b1 issue broken",
			Signature: map[string]Pred{"b1": IsAbsent}},
		{ID: 4, IP: "Z", Function: "b2 corruption",
			Signature: map[string]Pred{"b2": IsCorrupt}},
	}
	rep, err := Debug(obs, Config{
		Universe: universe,
		Flows:    []*flow.Flow{fa, fb},
		Traced:   []string{"a1", "a2", "a3", "b1", "b2"},
		Causes:   causes,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plausible) != 1 || rep.Plausible[0].ID != 1 {
		t.Fatalf("plausible = %+v, want only cause 1", rep.Plausible)
	}
	if rep.PrunedFraction != 0.75 {
		t.Errorf("pruned = %g, want 0.75", rep.PrunedFraction)
	}
	if rep.TotalCauses != 4 {
		t.Errorf("TotalCauses = %d", rep.TotalCauses)
	}
	if got := rep.RootCausedFunctions(); len(got) != 1 || got[0] != "a2 forwarding broken" {
		t.Errorf("RootCausedFunctions = %v", got)
	}
	// Distinct IP pairs: X->Y (a1), Y->Z (a2), Z->X (a3 and b2), X->Z
	// (b1). X->Y and X->Z behave normally and are exonerated; Y->Z is
	// suspect (a2 missing) and Z->X stays suspect because a3 is abnormal
	// even though b2 on the same pair is normal.
	if rep.LegalPairs != 4 {
		t.Errorf("LegalPairs = %d, want 4", rep.LegalPairs)
	}
	if rep.CandidatePairs != 2 {
		t.Errorf("CandidatePairs = %d, want 2 (Y->Z and Z->X suspect)", rep.CandidatePairs)
	}
	if rep.PairsInvestigated != 4 {
		t.Errorf("PairsInvestigated = %d, want 4 (all traced)", rep.PairsInvestigated)
	}
	if len(rep.Steps) != 5 || len(rep.CauseCurve) != 5 || len(rep.PairCurve) != 5 {
		t.Fatalf("steps/curves lengths = %d/%d/%d", len(rep.Steps), len(rep.CauseCurve), len(rep.PairCurve))
	}
	// Curves are non-increasing (progressive elimination, Figure 6).
	for i := 1; i < len(rep.CauseCurve); i++ {
		if rep.CauseCurve[i] > rep.CauseCurve[i-1] || rep.PairCurve[i] > rep.PairCurve[i-1] {
			t.Errorf("curves increased at step %d", i)
		}
	}
	// Investigation starts at the symptom message.
	if rep.Steps[0].Msg != "a2" {
		t.Errorf("first investigated = %q, want a2 (symptom)", rep.Steps[0].Msg)
	}
	if rep.EntriesInvestigated == 0 {
		t.Error("EntriesInvestigated = 0")
	}
}

func TestDebugGlobalSignatureDistinguishesReducedFromMissing(t *testing.T) {
	fa, fb, universe := testFlows(t)
	// Bug arms at index 3: a2 globally Reduced, focused Missing.
	golden, buggy := runPair(t, fa, fb, inject.Bug{ID: 1, Kind: inject.Drop, Target: "a2", AfterIndex: 3})
	obs := Observe(golden, buggy, allTraced())
	causes := []Cause{
		{ID: 1, Function: "always broken",
			Signature:       map[string]Pred{"a2": IsMissing},
			GlobalSignature: map[string]Pred{"a2": IsMissing}},
		{ID: 2, Function: "breaks after warm-up",
			Signature:       map[string]Pred{"a2": IsMissing},
			GlobalSignature: map[string]Pred{"a2": IsReduced}},
	}
	rep, err := Debug(obs, Config{
		Universe: universe, Flows: []*flow.Flow{fa, fb},
		Traced: []string{"a1", "a2", "a3", "b1", "b2"}, Causes: causes, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plausible) != 1 || rep.Plausible[0].ID != 2 {
		t.Fatalf("plausible = %+v, want only cause 2", rep.Plausible)
	}
}

func TestDebugConfigErrors(t *testing.T) {
	fa, fb, universe := testFlows(t)
	golden, _ := runPair(t, fa, fb)
	obs := Observe(golden, golden, allTraced())
	base := Config{Universe: universe, Flows: []*flow.Flow{fa, fb},
		Traced: []string{"a1"}, Causes: []Cause{{ID: 1}}, Seed: 1}

	c := base
	c.Traced = nil
	if _, err := Debug(obs, c); err == nil {
		t.Error("no traced messages should fail")
	}
	c = base
	c.Causes = nil
	if _, err := Debug(obs, c); err == nil {
		t.Error("no causes should fail")
	}
	c = base
	c.Traced = []string{"zz"}
	if _, err := Debug(obs, c); err == nil {
		t.Error("unknown traced message should fail")
	}
	c = base
	c.Causes = []Cause{{ID: 1}, {ID: 1}}
	if _, err := Debug(obs, c); err == nil {
		t.Error("duplicate cause ids should fail")
	}
	// Traced message in universe but absent from observation.
	c = base
	c.Traced = []string{"a1", "a2"}
	obsPartial := Observe(golden, golden, map[string]bool{"a1": true})
	if _, err := Debug(obsPartial, c); err == nil {
		t.Error("observation missing a traced message should fail")
	}
}

func TestDebugDeterministicForSeed(t *testing.T) {
	fa, fb, universe := testFlows(t)
	golden, buggy := runPair(t, fa, fb, inject.Bug{ID: 1, Kind: inject.Drop, Target: "a2"})
	obs := Observe(golden, buggy, allTraced())
	cfg := Config{Universe: universe, Flows: []*flow.Flow{fa, fb},
		Traced: []string{"a1", "a2", "a3", "b1", "b2"},
		Causes: []Cause{{ID: 1, Signature: map[string]Pred{"a2": IsMissing}}}, Seed: 7}
	r1, err := Debug(obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Debug(obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Steps {
		if r1.Steps[i].Msg != r2.Steps[i].Msg {
			t.Fatalf("investigation order differs at step %d", i)
		}
	}
}

func entriesFromEvents(events []soc.Event, traced map[string]bool) []tbuf.Entry {
	var out []tbuf.Entry
	for _, ev := range events {
		if ev.Dropped || !traced[ev.Msg.Name] {
			continue
		}
		out = append(out, tbuf.Entry{Cycle: ev.Cycle, Msg: ev.Msg, Data: ev.Data, Bits: 4})
	}
	return out
}

// ObserveEntries (trace files only) must classify exactly like Observe
// (full event streams) when the buffer captures whole messages.
func TestObserveEntriesMatchesObserve(t *testing.T) {
	fa, fb, _ := testFlows(t)
	traced := allTraced()
	for _, bug := range []inject.Bug{
		{ID: 1, Kind: inject.Drop, Target: "a2", AfterIndex: 3},
		{ID: 2, Kind: inject.Corrupt, Target: "b1", XorMask: 0x3},
	} {
		golden, buggy := runPair(t, fa, fb, bug)
		want := Observe(golden, buggy, traced)
		got := ObserveEntries(
			entriesFromEvents(golden.Events, traced),
			entriesFromEvents(buggy.Events, traced),
			traced, want.FocusIndex)
		for name := range traced {
			if got.Global[name] != want.Global[name] {
				t.Errorf("bug %d: %s global = %v, want %v", bug.ID, name, got.Global[name], want.Global[name])
			}
			if got.Focused[name] != want.Focused[name] {
				t.Errorf("bug %d: %s focused = %v, want %v", bug.ID, name, got.Focused[name], want.Focused[name])
			}
			if got.Entries[name] != want.Entries[name] {
				t.Errorf("bug %d: %s entries = %d, want %d", bug.ID, name, got.Entries[name], want.Entries[name])
			}
		}
	}
}

// A corruption outside the captured subgroup window is invisible to the
// packed buffer: ObserveEntries must report Normal, not Corrupt.
func TestObserveEntriesPartialCaptureMissesOutOfWindowCorruption(t *testing.T) {
	traced := map[string]bool{"m": true}
	mk := func(data uint64) []tbuf.Entry {
		// Capture plan keeps only the low 2 bits.
		return []tbuf.Entry{{Cycle: 1, Msg: flow.IndexedMsg{Name: "m", Index: 1}, Data: data & 0b11, Bits: 2}}
	}
	gold := mk(0b0101)
	corruptHigh := mk(0b1101) // flipped bit 3: outside the window
	corruptLow := mk(0b0110)  // flipped bits inside the window
	if got := ObserveEntries(gold, corruptHigh, traced, 1); got.Global["m"] != Normal {
		t.Errorf("out-of-window corruption = %v, want normal (invisible)", got.Global["m"])
	}
	if got := ObserveEntries(gold, corruptLow, traced, 1); got.Global["m"] != Corrupt {
		t.Errorf("in-window corruption = %v, want corrupt", got.Global["m"])
	}
}

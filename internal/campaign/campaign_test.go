package campaign

import (
	"math"
	"strings"
	"testing"

	"tracescale/internal/debugger"
	"tracescale/internal/flow"
	"tracescale/internal/inject"
	"tracescale/internal/obs"
	"tracescale/internal/soc"
)

// The campaign testbed mirrors the debugger package's: flow A carries
// a1→a2→a3 across IPs X→Y→Z→X, flow B carries b1→b2 across X→Z→X.

func buildFlow(t *testing.T, name string, states []string, msgs []flow.Message) *flow.Flow {
	t.Helper()
	b := flow.NewBuilder(name)
	b.States(states...)
	b.Init(states[0])
	b.Stop(states[len(states)-1])
	names := make([]string, len(msgs))
	for i, m := range msgs {
		b.Message(m)
		names[i] = m.Name
	}
	b.Chain(states, names)
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testScenario builds one campaign scenario over the testbed. The cause
// catalog is complete enough that tracing every message localizes each of
// the three bugs to exactly its injecting IP, while tracing only flow A
// leaves the flow-B causes unfalsifiable — the set-differentiation the
// scorecard assertions pin.
func testScenario(t *testing.T, name string, stride uint64) Scenario {
	t.Helper()
	universe := []flow.Message{
		{Name: "a1", Width: 4, Src: "X", Dst: "Y"},
		{Name: "a2", Width: 4, Src: "Y", Dst: "Z"},
		{Name: "a3", Width: 4, Src: "Z", Dst: "X"},
		{Name: "b1", Width: 4, Src: "X", Dst: "Z"},
		{Name: "b2", Width: 4, Src: "Z", Dst: "X"},
	}
	fa := buildFlow(t, "A", []string{"s0", "s1", "s2", "s3"}, universe[:3])
	fb := buildFlow(t, "B", []string{"t0", "t1", "t2"}, universe[3:])
	causes := []debugger.Cause{
		{ID: 1, IP: "X", Function: "a1 never issued",
			Signature: map[string]debugger.Pred{"a1": debugger.IsMissing}},
		{ID: 2, IP: "Y", Function: "a2 forwarding broken",
			Signature: map[string]debugger.Pred{"a1": debugger.IsPresent, "a2": debugger.IsAbsent}},
		{ID: 3, IP: "Y", Function: "a2 corrupted in transit",
			Signature: map[string]debugger.Pred{"a2": debugger.IsCorrupt}},
		{ID: 4, IP: "Z", Function: "a3 generation broken",
			Signature: map[string]debugger.Pred{"a2": debugger.IsNormal, "a3": debugger.IsMissing}},
		{ID: 5, IP: "X", Function: "b1 never issued",
			Signature: map[string]debugger.Pred{"b1": debugger.IsAbsent}},
		{ID: 6, IP: "X", Function: "b1 corrupted at issue",
			Signature: map[string]debugger.Pred{"b1": debugger.IsCorrupt}},
		{ID: 7, IP: "Z", Function: "b2 reply broken",
			Signature: map[string]debugger.Pred{"b1": debugger.IsPresent, "b2": debugger.IsMissing}},
	}
	bugs := []inject.Bug{
		{ID: 1, IP: "Y", Kind: inject.Drop, Target: "a2", AfterIndex: 3},
		{ID: 2, IP: "X", Kind: inject.Drop, Target: "b1"},
		{ID: 3, IP: "X", Kind: inject.Corrupt, Target: "b1", XorMask: 0x3},
	}
	return Scenario{
		Name: name,
		Launches: append(
			soc.Repeat(fa, 5, 1, 0, stride),
			soc.Repeat(fb, 5, 1, 2, stride)...),
		Universe: universe,
		Flows:    []*flow.Flow{fa, fb},
		Causes:   causes,
		Bugs:     bugs,
		Sets: []MessageSet{
			{Name: "all", Traced: []string{"a1", "a2", "a3", "b1", "b2"}},
			{Name: "aonly", Traced: []string{"a1", "a2", "a3"}},
		},
	}
}

func testSpec(t *testing.T) Spec {
	t.Helper()
	return Spec{
		Name:      "unit",
		Seed:      42,
		Reps:      2,
		Scenarios: []Scenario{testScenario(t, "t", 4)},
	}
}

func TestCampaignScorecards(t *testing.T) {
	reg := obs.NewRegistry()
	spec := testSpec(t)
	spec.Obs = reg
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid.Runs != 6 || len(rep.Runs) != 6 {
		t.Fatalf("grid = %+v with %d records, want 6 runs (3 bugs × 2 reps)", rep.Grid, len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Index != i {
			t.Errorf("record %d carries index %d", i, r.Index)
		}
		if r.Outcome != OutcomeSymptom {
			t.Errorf("run %d outcome = %q (%s), want symptom", i, r.Outcome, r.Detail)
		}
		if r.FirstSymptom == "" || r.Symptoms == 0 {
			t.Errorf("run %d: symptom fields empty: %+v", i, r)
		}
		if len(r.Scores) != 2 {
			t.Errorf("run %d has %d scores, want 2", i, len(r.Scores))
		}
		if r.Seed != DerivedSeed(spec.Seed, i) {
			t.Errorf("run %d seed = %d, want DerivedSeed(%d, %d)", i, r.Seed, spec.Seed, i)
		}
		if r.Attempts != 1 {
			t.Errorf("run %d attempts = %d, want 1 (every point runs once)", i, r.Attempts)
		}
	}

	all, aonly := rep.Card("all"), rep.Card("aonly")
	if all == nil || aonly == nil {
		t.Fatalf("missing scorecards: %+v", rep.Scorecards)
	}
	// Full visibility: every bug is detected and every plausible-cause set
	// collapses onto the injecting IP.
	if all.BugsDetected != 3 || all.BugsLocalized != 3 {
		t.Errorf("all: detected/localized bugs = %d/%d, want 3/3", all.BugsDetected, all.BugsLocalized)
	}
	if all.SymptomRuns != 6 || all.RunsLocalized != 6 {
		t.Errorf("all: symptom/localized runs = %d/%d, want 6/6", all.SymptomRuns, all.RunsLocalized)
	}
	if all.MeanPlausible != 1 {
		t.Errorf("all: mean plausible = %g, want 1 (unique survivor per run)", all.MeanPlausible)
	}
	if all.MeanDepth <= 0 {
		t.Errorf("all: mean depth = %g, want > 0", all.MeanDepth)
	}
	// Flow-A-only visibility: bugs 2 and 3 never touch a traced message,
	// and even bug 1 cannot be localized because the flow-B causes are
	// unfalsifiable without b1/b2 observations.
	if aonly.BugsDetected != 1 {
		t.Errorf("aonly: bugs detected = %d, want 1 (only the a2 drop)", aonly.BugsDetected)
	}
	if aonly.BugsLocalized != 0 || aonly.RunsLocalized != 0 {
		t.Errorf("aonly: localized = %d bugs / %d runs, want 0/0", aonly.BugsLocalized, aonly.RunsLocalized)
	}
	if aonly.RunsDetected != 2 {
		t.Errorf("aonly: runs detected = %d, want 2 (bug 1 × 2 reps)", aonly.RunsDetected)
	}

	snap := reg.Snapshot()
	if snap["campaign.runs.started"] != 6 || snap["campaign.runs.completed"] != 6 {
		t.Errorf("run counters = started %d / completed %d, want 6/6",
			snap["campaign.runs.started"], snap["campaign.runs.completed"])
	}
	if snap["campaign.outcome.symptom"] != 6 {
		t.Errorf("campaign.outcome.symptom = %d, want 6", snap["campaign.outcome.symptom"])
	}
	if snap["campaign.bug.1.symptoms"] == 0 {
		t.Error("campaign.bug.1.symptoms = 0, want > 0")
	}
	if snap["campaign.run_wall_us.count"] != 6 {
		t.Errorf("campaign.run_wall_us.count = %d, want 6", snap["campaign.run_wall_us.count"])
	}
}

func TestCampaignNilRegistry(t *testing.T) {
	spec := testSpec(t)
	spec.Obs = nil
	if _, err := Run(spec); err != nil {
		t.Fatalf("nil registry must be a no-op, got %v", err)
	}
}

func TestCampaignValidation(t *testing.T) {
	mutate := func(f func(*Spec)) Spec {
		s := testSpec(t)
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no scenarios", mutate(func(s *Spec) { s.Scenarios = nil }), "no scenarios"},
		{"unnamed scenario", mutate(func(s *Spec) { s.Scenarios[0].Name = "" }), "has no name"},
		{"no launches", mutate(func(s *Spec) { s.Scenarios[0].Launches = nil }), "no launches"},
		{"no bugs", mutate(func(s *Spec) { s.Scenarios[0].Bugs = nil }), "no bugs"},
		{"no causes", mutate(func(s *Spec) { s.Scenarios[0].Causes = nil }), "no cause catalog"},
		{"no sets", mutate(func(s *Spec) { s.Scenarios[0].Sets = nil }), "no message sets"},
		{"unnamed set", mutate(func(s *Spec) { s.Scenarios[0].Sets[0].Name = "" }), "unnamed message set"},
		{"duplicate set", mutate(func(s *Spec) { s.Scenarios[0].Sets[1].Name = "all" }), "twice"},
		{"empty set", mutate(func(s *Spec) { s.Scenarios[0].Sets[0].Traced = nil }), "traces no messages"},
		{"unknown traced", mutate(func(s *Spec) {
			s.Scenarios[0].Sets[0].Traced = []string{"zz"}
		}), "not in the scenario universe"},
		{"ambiguity for undeclared set", mutate(func(s *Spec) {
			s.Scenarios[0].Ambiguity = map[string]float64{"bogus": 2}
		}), "not a declared set"},
		{"impossible ambiguity", mutate(func(s *Spec) {
			s.Scenarios[0].Ambiguity = map[string]float64{"all": 0.5}
		}), "below 1 is impossible"},
		{"NaN ambiguity", mutate(func(s *Spec) {
			s.Scenarios[0].Ambiguity = map[string]float64{"all": math.NaN()}
		}), "not finite"},
		{"infinite ambiguity", mutate(func(s *Spec) {
			s.Scenarios[0].Ambiguity = map[string]float64{"all": math.Inf(1)}
		}), "not finite"},
		{"set mismatch", mutate(func(s *Spec) {
			scn2 := testScenario(t, "t2", 6)
			scn2.Sets = scn2.Sets[:1]
			s.Scenarios = append(s.Scenarios, scn2)
		}), "same sets in the same order"},
		// Printed with spaces between them, the names "all" and "aonly"
		// read like the one name "all aonly".
		{"set names joined by a space", mutate(func(s *Spec) {
			s.Scenarios[0].Sets = []MessageSet{{Name: "all aonly", Traced: []string{"a1"}}}
			s.Scenarios = append(s.Scenarios, testScenario(t, "t2", 6))
		}), "same sets in the same order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestDerivedSeedIndependence(t *testing.T) {
	seen := make(map[int64]int)
	for idx := 0; idx < 1000; idx++ {
		s := DerivedSeed(7, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DerivedSeed(7, %d) == DerivedSeed(7, %d) == %d", idx, prev, s)
		}
		seen[s] = idx
	}
	if DerivedSeed(1, 0) == DerivedSeed(2, 0) {
		t.Error("distinct campaign seeds must derive distinct run seeds")
	}
	if DerivedSeed(5, 3) != DerivedSeed(5, 3) {
		t.Error("DerivedSeed must be a pure function")
	}
}

// A run that panics (here: a nil flow dereferenced inside soc.Run) must be
// isolated into an OutcomePanic record, not take down the campaign.
func TestCampaignPanicIsolation(t *testing.T) {
	spec := testSpec(t)
	spec.Reps = 1
	spec.Scenarios[0].Launches = []soc.Launch{{Flow: nil, Index: 1}}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Runs {
		if r.Outcome != OutcomePanic {
			t.Errorf("run %d outcome = %q, want panic", i, r.Outcome)
		}
		if r.Detail == "" {
			t.Errorf("run %d: panic record carries no detail", i)
		}
		if len(r.Scores) != 0 {
			t.Errorf("run %d: panicked run carries scores", i)
		}
	}
}

// A panic is recovered on the worker that ran the point: with one worker,
// the points after a panicking scenario's run on the same goroutine and
// still score, and the panic records keep their identity fields.
func TestCampaignPanicOnSharedWorker(t *testing.T) {
	reg := obs.NewRegistry()
	spec := testSpec(t)
	spec.Reps, spec.Workers, spec.Obs = 1, 1, reg
	broken := testScenario(t, "broken", 4)
	broken.Launches = []soc.Launch{{Flow: nil, Index: 1}}
	spec.Scenarios = []Scenario{broken, testScenario(t, "t", 4)}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 6 {
		t.Fatalf("%d records, want 6 (2 scenarios × 3 bugs)", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		scn, bug := spec.Scenarios[i/3], spec.Scenarios[i/3].Bugs[i%3]
		if r.Index != i || r.Scenario != scn.Name || r.Bug != bug.ID || r.Seed != DerivedSeed(spec.Seed, i) || r.Attempts != 1 {
			t.Errorf("run %d identity = index %d, scenario %q, bug %d, seed %d, attempts %d; want %d, %q, %d, %d, 1",
				i, r.Index, r.Scenario, r.Bug, r.Seed, r.Attempts, i, scn.Name, bug.ID, DerivedSeed(spec.Seed, i))
		}
		if i < 3 {
			if r.Outcome != OutcomePanic || r.Detail == "" || len(r.Scores) != 0 {
				t.Errorf("run %d = %q (%q) with %d scores, want a panic with detail and no scores",
					i, r.Outcome, r.Detail, len(r.Scores))
			}
			continue
		}
		if r.Outcome != OutcomeSymptom || len(r.Scores) != 2 {
			t.Errorf("run %d after the panics = %q (%s) with %d scores, want a scored symptom run",
				i, r.Outcome, r.Detail, len(r.Scores))
		}
	}
	if all := rep.Card("all"); all.SymptomRuns != 3 || all.BugsLocalized != 3 {
		t.Errorf("all: symptom runs/localized bugs = %d/%d, want 3/3", all.SymptomRuns, all.BugsLocalized)
	}
	snap := reg.Snapshot()
	for key, want := range map[string]int64{
		"campaign.runs.started":      6,
		"campaign.runs.completed":    6,
		"campaign.outcome.panic":     3,
		"campaign.outcome.symptom":   3,
		"campaign.run_wall_us.count": 6,
	} {
		if snap[key] != want {
			t.Errorf("%s = %d, want %d", key, snap[key], want)
		}
	}
}

// A scoring failure (here: duplicate cause IDs rejected by debugger.Debug)
// is recorded as OutcomeError with the error text.
func TestCampaignErrorOutcome(t *testing.T) {
	spec := testSpec(t)
	spec.Reps = 1
	spec.Scenarios[0].Causes = append(spec.Scenarios[0].Causes, spec.Scenarios[0].Causes[0])
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Runs {
		if r.Outcome != OutcomeError || !strings.Contains(r.Detail, "duplicate cause id") {
			t.Errorf("run %d = %q (%s), want error about duplicate cause ids", i, r.Outcome, r.Detail)
		}
	}
}

// TestCampaignMeanAmbiguity: declared per-scenario ambiguities average
// into the scorecards in scenario order; undeclared sets stay zero.
func TestCampaignMeanAmbiguity(t *testing.T) {
	spec := testSpec(t)
	scn2 := testScenario(t, "t2", 6)
	spec.Scenarios = append(spec.Scenarios, scn2)
	spec.Scenarios[0].Ambiguity = map[string]float64{"all": 1, "aonly": 3}
	spec.Scenarios[1].Ambiguity = map[string]float64{"aonly": 5}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Card("all").MeanAmbiguity; got != 1 {
		t.Errorf("all mean ambiguity = %g, want 1 (only scenario t declares it)", got)
	}
	if got := rep.Card("aonly").MeanAmbiguity; got != 4 {
		t.Errorf("aonly mean ambiguity = %g, want (3+5)/2 = 4", got)
	}
}

package campaign

import (
	"reflect"
	"testing"

	"tracescale/internal/debugger"
	"tracescale/internal/inject"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
)

// t2Spec is a campaign over T2 scenarios 1-3 and every catalog bug whose
// target the scenario carries, scoring the whole universe and every other
// message of it.
func t2Spec(t *testing.T, seed int64) Spec {
	t.Helper()
	spec := Spec{Name: "t2-stream", Seed: seed, Reps: 2}
	for _, s := range opensparc.Scenarios() {
		causes, err := opensparc.Causes(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		universe := s.Universe()
		var all, half []string
		for i, m := range universe {
			all = append(all, m.Name)
			if i%2 == 0 {
				half = append(half, m.Name)
			}
		}
		var bugs []inject.Bug
		for _, b := range opensparc.Bugs() {
			for _, m := range universe {
				if m.Name == b.Target {
					bugs = append(bugs, b)
					break
				}
			}
		}
		spec.Scenarios = append(spec.Scenarios, Scenario{
			Name:     s.Name,
			Launches: s.Launches(2, 24),
			Universe: universe,
			Flows:    s.Flows(),
			Causes:   causes,
			Bugs:     bugs,
			Sets:     []MessageSet{{Name: "all", Traced: all}, {Name: "half", Traced: half}},
		})
	}
	return spec
}

// referenceRecord runs grid point idx as perfbench's replay does: each
// soc.Run and each debugger.Debug seeds a source of its own.
func referenceRecord(t *testing.T, spec *Spec, idx int, pt point) (RunRecord, int) {
	t.Helper()
	scn := &spec.Scenarios[pt.si]
	bug := scn.Bugs[pt.bi]
	rec := RunRecord{
		Index: idx, Scenario: scn.Name, Bug: bug.ID, BugIP: bug.IP, Target: bug.Target,
		Rep: pt.rep, Seed: DerivedSeed(spec.Seed, idx), Attempts: 1,
	}
	sc := soc.Scenario{Name: scn.Name, Launches: scn.Launches}
	golden, err := soc.Run(sc, soc.Config{Seed: rec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	buggy, err := soc.Run(sc, soc.Config{Seed: rec.Seed, Injectors: inject.Injectors(bug)})
	if err != nil {
		t.Fatal(err)
	}
	rec.Events, rec.EndCycle, rec.Symptoms = len(buggy.Events), buggy.EndCycle, len(buggy.Symptoms)
	rec.Outcome = OutcomePass
	if rec.Symptoms > 0 {
		rec.Outcome = OutcomeSymptom
		rec.FirstSymptom = buggy.Symptoms[0].Kind.String()
	}
	sessions := 0
	for _, set := range scn.Sets {
		traced := make(map[string]bool, len(set.Traced))
		for _, n := range set.Traced {
			traced[n] = true
		}
		o := debugger.Observe(golden, buggy, traced)
		score := RunScore{Set: set.Name, Detected: len(o.AffectedMessages()) > 0}
		if len(o.Symptoms) > 0 {
			rep, err := debugger.Debug(o, debugger.Config{
				Universe: scn.Universe, Flows: scn.Flows, Traced: set.Traced, Causes: scn.Causes, Seed: rec.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			sessions++
			score.Steps, score.Plausible = len(rep.Steps), len(rep.Plausible)
			for i, st := range rep.Steps {
				if len(st.Eliminated) > 0 {
					score.Depth = i + 1
				}
			}
			score.Localized = len(rep.Plausible) > 0
			for _, c := range rep.Plausible {
				if c.IP != bug.IP {
					score.Localized = false
					break
				}
			}
		}
		rec.Scores = append(rec.Scores, score)
	}
	return rec, sessions
}

// TestSharedStreamMatchesPerConsumerSeeding holds Run, whose grid points
// read one stream per point, equal record for record to a reference that
// seeds every simulation and every session on its own, at several master
// seeds and at one and two workers.
func TestSharedStreamMatchesPerConsumerSeeding(t *testing.T) {
	for _, seed := range []int64{1, 5, -7, 1 << 40} {
		spec := t2Spec(t, seed)
		var want []RunRecord
		sessions := 0
		for idx, pt := range spec.grid() {
			rec, n := referenceRecord(t, &spec, idx, pt)
			want = append(want, rec)
			sessions += n
		}
		if sessions == 0 {
			t.Fatalf("seed %d: the reference debugged no run", seed)
		}
		for _, workers := range []int{1, 2} {
			s := spec
			s.Workers = workers
			rep, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Runs) != len(want) {
				t.Fatalf("seed %d workers %d: %d runs, want %d", seed, workers, len(rep.Runs), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(rep.Runs[i], want[i]) {
					t.Fatalf("seed %d workers %d run %d:\n got %+v\nwant %+v", seed, workers, i, rep.Runs[i], want[i])
				}
			}
		}
	}
}

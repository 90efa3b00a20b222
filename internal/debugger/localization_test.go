package debugger

import (
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/inject"
)

// localizationCatalog is a cause catalog rich enough that each injected
// bug below leaves exactly one plausible cause — the unit-level anchor for
// the campaign scorecard's "localized" notion. Global signatures separate
// all-run breakage (Missing) from bugs that arm partway through (Reduced).
func localizationCatalog() []Cause {
	return []Cause{
		{ID: 1, IP: "X", Function: "a1 never issued",
			Signature: map[string]Pred{"a1": IsMissing}},
		{ID: 2, IP: "Y", Function: "a2 forwarding broken",
			Signature: map[string]Pred{"a1": IsPresent, "a2": IsAbsent}},
		{ID: 3, IP: "Y", Function: "a2 corrupted in transit",
			Signature: map[string]Pred{"a2": IsCorrupt}},
		{ID: 4, IP: "Z", Function: "a3 generation broken",
			Signature:       map[string]Pred{"a2": IsNormal, "a3": IsMissing},
			GlobalSignature: map[string]Pred{"a3": IsMissing}},
		{ID: 5, IP: "Y", Function: "a2 delivery stalled",
			Signature:       map[string]Pred{"a2": IsPresent, "a3": IsMissing},
			GlobalSignature: map[string]Pred{"a3": IsReduced}},
		{ID: 6, IP: "X", Function: "b1 never issued",
			Signature: map[string]Pred{"b1": IsAbsent}},
		{ID: 7, IP: "X", Function: "b1 corrupted at issue",
			Signature: map[string]Pred{"b1": IsCorrupt}},
		{ID: 8, IP: "Z", Function: "b2 reply broken",
			Signature: map[string]Pred{"b1": IsPresent, "b2": IsMissing}},
	}
}

// TestDebugLocalizesInjectedBugs drives Debug over known injected bugs —
// drops armed at fixed instance indexes plus a corruption — and asserts
// the report names exactly the faulty IP and architecture-level function.
func TestDebugLocalizesInjectedBugs(t *testing.T) {
	cases := []struct {
		name string
		bug  inject.Bug
		// wantCause / wantIP / wantFunction describe the unique survivor.
		wantCause    int
		wantIP       string
		wantFunction string
	}{
		{
			name:         "drop a2 after warm-up",
			bug:          inject.Bug{ID: 1, IP: "Y", Kind: inject.Drop, Target: "a2", AfterIndex: 3},
			wantCause:    2,
			wantIP:       "Y",
			wantFunction: "a2 forwarding broken",
		},
		{
			name: "drop a3 after warm-up",
			// a2 arrives and a3 never does for armed instances, so the run
			// hangs after a2: the observation of a stalled a2 delivery.
			bug:          inject.Bug{ID: 2, IP: "Y", Kind: inject.Drop, Target: "a3", AfterIndex: 3},
			wantCause:    5,
			wantIP:       "Y",
			wantFunction: "a2 delivery stalled",
		},
		{
			name:         "drop b1 from the second instance",
			bug:          inject.Bug{ID: 3, IP: "X", Kind: inject.Drop, Target: "b1", AfterIndex: 2},
			wantCause:    6,
			wantIP:       "X",
			wantFunction: "b1 never issued",
		},
		{
			name:         "drop a1 always",
			bug:          inject.Bug{ID: 4, IP: "X", Kind: inject.Drop, Target: "a1"},
			wantCause:    1,
			wantIP:       "X",
			wantFunction: "a1 never issued",
		},
		{
			name:         "corrupt a2 payload",
			bug:          inject.Bug{ID: 5, IP: "Y", Kind: inject.Corrupt, Target: "a2", XorMask: 0x9, AfterIndex: 2},
			wantCause:    3,
			wantIP:       "Y",
			wantFunction: "a2 corrupted in transit",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fa, fb, universe := testFlows(t)
			golden, buggy := runPair(t, fa, fb, tc.bug)
			if len(buggy.Symptoms) == 0 {
				t.Fatalf("bug %d produced no symptom", tc.bug.ID)
			}
			obs := Observe(golden, buggy, allTraced())
			rep, err := Debug(obs, Config{
				Universe: universe,
				Flows:    []*flow.Flow{fa, fb},
				Traced:   []string{"a1", "a2", "a3", "b1", "b2"},
				Causes:   localizationCatalog(),
				Seed:     5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Plausible) != 1 {
				t.Fatalf("plausible = %+v, want exactly cause %d", rep.Plausible, tc.wantCause)
			}
			got := rep.Plausible[0]
			if got.ID != tc.wantCause || got.IP != tc.wantIP || got.Function != tc.wantFunction {
				t.Errorf("survivor = cause %d (%s: %s), want cause %d (%s: %s)",
					got.ID, got.IP, got.Function, tc.wantCause, tc.wantIP, tc.wantFunction)
			}
			if got.IP != tc.bug.IP {
				t.Errorf("survivor IP %s does not match the injected bug's IP %s", got.IP, tc.bug.IP)
			}
			if fns := rep.RootCausedFunctions(); len(fns) != 1 || fns[0] != tc.wantFunction {
				t.Errorf("RootCausedFunctions = %v, want [%s]", fns, tc.wantFunction)
			}
		})
	}
}

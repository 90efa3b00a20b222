package synth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

func TestFlowGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, err := Flow("t", Params{States: 6, Branch: 0.5, MaxWidth: 10, GroupProb: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumStates() != 6 {
		t.Errorf("states = %d", f.NumStates())
	}
	if f.NumMessages() < 5 {
		t.Errorf("messages = %d, want >= 5 (chain)", f.NumMessages())
	}
	for _, m := range f.Messages() {
		if m.Width < 1 || m.Width > 10 {
			t.Errorf("width %d out of range", m.Width)
		}
		if m.Width > 2 && len(m.Groups) == 0 {
			t.Errorf("message %s lacks a group despite GroupProb 1", m.Name)
		}
	}
}

func TestFlowDeterministicInSeed(t *testing.T) {
	a, err := Flow("t", Params{States: 5, Branch: 0.3}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Flow("t", Params{States: 5, Branch: 0.3}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumMessages() != b.NumMessages() || len(a.Edges()) != len(b.Edges()) {
		t.Error("generation not deterministic")
	}
}

func TestErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Flow("t", Params{States: 1}, rng); err == nil {
		t.Error("1-state flow accepted")
	}
	if _, err := Scenario(0, Params{}, rng); err == nil {
		t.Error("0-flow scenario accepted")
	}
	if _, err := Universe(10, 0, Params{}, rng); err == nil {
		t.Error("0-flow universe accepted")
	}
	if _, err := Universe(2, 3, Params{}, rng); err == nil {
		t.Error("universe with fewer messages than flows accepted")
	}
}

// Universe delivers exactly the requested message count — the property the
// scalability sweeps rely on — while the chain shape keeps the interleaved
// product polynomial instead of exponential in the message count.
func TestUniverseExactMessageCount(t *testing.T) {
	for _, tc := range []struct{ messages, flows int }{
		{5, 1}, {10, 3}, {17, 4}, {120, 2},
	} {
		insts, err := Universe(tc.messages, tc.flows, Params{}, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatalf("Universe(%d, %d): %v", tc.messages, tc.flows, err)
		}
		if len(insts) != tc.flows {
			t.Errorf("Universe(%d, %d) built %d flows", tc.messages, tc.flows, len(insts))
		}
		total := 0
		for _, in := range insts {
			total += in.Flow.NumMessages()
		}
		if total != tc.messages {
			t.Errorf("Universe(%d, %d) has %d messages, want exactly %d",
				tc.messages, tc.flows, total, tc.messages)
		}
	}
	// The 120-message two-flow family stays interleavable: ~61x61 product
	// states, not 2^120.
	insts, err := Universe(120, 2, Params{}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New(insts)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() > 5000 {
		t.Errorf("120-message universe product has %d states — the chain shape stopped containing it", p.NumStates())
	}
}

func TestScenarioAndReplicatedInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	insts, err := Scenario(3, Params{States: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New(insts)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 4*4*4 {
		t.Errorf("product = %d states, want 64", p.NumStates())
	}
	f, err := Flow("rep", Params{States: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	reps := []flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}, {Flow: f, Index: 3}}
	if _, err := interleave.New(reps); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated scenario survives the full selection pipeline
// and the knapsack matches the exhaustive optimum.
func TestGeneratedScenariosSelectCleanly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		insts, err := Scenario(1+rng.Intn(3), Params{
			States:    3 + rng.Intn(3),
			Branch:    rng.Float64() * 0.5,
			MaxWidth:  6,
			GroupProb: 0.5,
		}, rng)
		if err != nil {
			return false
		}
		p, err := interleave.New(insts)
		if err != nil {
			return false
		}
		e, err := core.NewEvaluator(p)
		if err != nil {
			return false
		}
		budget := 4 + rng.Intn(12)
		ex, errE := core.Select(e, core.Config{BufferWidth: budget, DisablePacking: true})
		kn, errK := core.Select(e, core.Config{BufferWidth: budget, Method: core.Knapsack, DisablePacking: true})
		if errE != nil || errK != nil {
			return (errE == nil) == (errK == nil)
		}
		return math.Abs(ex.SelectedGain-kn.SelectedGain) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

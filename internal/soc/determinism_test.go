package soc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tracescale/internal/flow"
)

// TestRunDeterministicForSeed is the invariant the campaign runner's
// seed-derivation scheme stands on: an identical Config.Seed and scenario
// must reproduce the Result byte-for-byte — events, symptoms, and timeline
// — across reruns. The workload deliberately exercises every RNG consumer:
// ready-instance and edge picks, latency jitter, and a probabilistic
// injector.
func TestRunDeterministicForSeed(t *testing.T) {
	f := flow.CacheCoherence()
	sc := Scenario{Name: "det", Launches: Repeat(f, 8, 1, 0, 5)}
	cfg := Config{
		Seed:       1234,
		MaxLatency: 7,
		Injectors: []Injector{funcInjector(func(ev Event, rng *rand.Rand) Outcome {
			// A probabilistic corruption: fires on the rng stream, so a
			// rerun only matches if the whole stream replays identically.
			if rng.Float64() < 0.25 {
				return Outcome{Bug: 9, XorMask: 0x5}
			}
			return Outcome{}
		})},
	}
	want, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Events) == 0 {
		t.Fatal("workload produced no events")
	}
	wantRepr := fmt.Sprintf("%#v %#v %d %d %d", want.Events, want.Symptoms,
		want.EndCycle, want.Completed, want.Wedged)
	for rerun := 0; rerun < 20; rerun++ {
		got, err := Run(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rerun %d diverged structurally", rerun)
		}
		gotRepr := fmt.Sprintf("%#v %#v %d %d %d", got.Events, got.Symptoms,
			got.EndCycle, got.Completed, got.Wedged)
		if gotRepr != wantRepr {
			t.Fatalf("rerun %d diverged byte-wise:\n got %s\nwant %s", rerun, gotRepr, wantRepr)
		}
	}
	// Distinct seeds must actually change the run — otherwise the test
	// above proves nothing about the RNG plumbing.
	other, err := Run(sc, Config{Seed: 4321, MaxLatency: cfg.MaxLatency, Injectors: cfg.Injectors})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, want) {
		t.Error("seed 4321 reproduced seed 1234's run exactly — the seed is not reaching the RNG")
	}
}

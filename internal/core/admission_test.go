package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/reconstruct"
	"tracescale/internal/synth"
)

func ccSet(k int) []flow.Instance {
	f := flow.CacheCoherence()
	out := make([]flow.Instance, k)
	for i := range out {
		out[i] = flow.Instance{Flow: f, Index: i + 1}
	}
	return out
}

// TestAnalyzeRejectsOversizedBeforeAllocating: thirteen cache-coherence
// instances interleave into 3^13 + 13·3^12 = 8,503,056 states, over
// interleave.MaxStates. Analyze refuses with New's exact error from the
// closed form, allocating under 1 MB (a product build would intern
// millions of tuples before discovering the overflow). Sixty-four
// instances, whose Π NA_j = 3^64 overflows int64, are refused the same
// way: the closed form saturates instead of wrapping.
func TestAnalyzeRejectsOversizedBeforeAllocating(t *testing.T) {
	want := fmt.Sprintf("interleave: product exceeds %d states", interleave.MaxStates)
	if want != "interleave: product exceeds 4000000 states" {
		t.Fatalf("MaxStates error text changed: %q", want)
	}
	for _, k := range []int{13, 64} {
		insts := ccSet(k)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Analyze(insts, nil)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != want {
			t.Fatalf("CC x%d: err = %v, want %q", k, err, want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("CC x%d: rejection allocated %d bytes, want < 1 MB", k, alloc)
		}
	}
	if n, err := interleave.Admit(ccSet(11)); err != nil || n != 826_686 {
		t.Errorf("Admit(CC x11) = %d, %v; want 826686 = 3^11 + 11·3^10", n, err)
	}
}

// TestReconstructRefusesBeforeBuilding: the reconstruct strategy checks
// the closed-form state count against reconstruct.MaxAmbiguityStates
// before forcing the product build, with PairCount's error text.
func TestReconstructRefusesBeforeBuilding(t *testing.T) {
	insts, err := synth.Universe(30, 6, synth.Params{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := Analyze(insts, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Select(e, Config{BufferWidth: 8, Method: Reconstruct})
	if want := reconstruct.CheckAmbiguityStates(e.NumStates()); want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want PairCount's %v", err, want)
	}
	if n := reg.Snapshot()["interleave.builds"]; n != 0 {
		t.Errorf("interleave.builds = %d, want 0: the refusal must precede the build", n)
	}
}

package core

import (
	"fmt"
	"math"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// hotFlow builds a small flow whose "Hot" message labels fan edges into
// `fan` intermediate states. Different fans give the indexed instances of
// Hot different occurrence statistics, so each instance contributes a gain
// term of a different magnitude — the asymmetry a determinism test needs:
// summing distinct-magnitude floats is order-sensitive at the bit level.
func hotFlow(t *testing.T, fan int) *flow.Flow {
	t.Helper()
	b := flow.NewBuilder(fmt.Sprintf("hot%d", fan))
	b.States("s0", "t")
	b.Init("s0")
	b.Stop("t")
	b.Message(flow.Message{Name: "Hot", Width: 4, Src: "A", Dst: "B"})
	b.Message(flow.Message{Name: "Fin", Width: 2, Src: "B", Dst: "A"})
	for i := 0; i < fan; i++ {
		mid := fmt.Sprintf("m%d", i)
		b.State(mid)
		b.Edge("s0", mid, "Hot")
		b.Edge(mid, "t", "Fin")
	}
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// asymmetricProduct interleaves five structurally different flows that all
// declare the messages Hot and Fin, so the evaluator folds five
// different-magnitude per-index contributions into each message's gain.
func asymmetricProduct(t *testing.T) *interleave.Product {
	t.Helper()
	var instances []flow.Instance
	for i, fan := range []int{1, 2, 3, 4, 5} {
		instances = append(instances, flow.Instance{Flow: hotFlow(t, fan), Index: i + 1})
	}
	p, err := interleave.New(instances)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvaluatorGainBitDeterminism rebuilds the evaluator many times over
// the same product and requires every per-message gain to be bit-identical
// across builds. Float addition is not associative, so the five
// distinct-magnitude contributions per message must be summed in a fixed
// order: an evaluator that once summed them in map-iteration order
// (ranging over interleave.MessageStats) varied in the low bits of Gain
// run to run, enough to flip the selector's epsilon tie-breaks and
// desynchronize goldens, and failed this test within a few rebuilds. The
// closed form folds indexed messages in (Name, Index) order.
func TestEvaluatorGainBitDeterminism(t *testing.T) {
	p := asymmetricProduct(t)

	ref, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ref.Universe()))
	for i, m := range ref.Universe() {
		names[i] = m.Name
	}

	for rebuild := 0; rebuild < 50; rebuild++ {
		e, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			want, err := ref.Gain([]string{name})
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Gain([]string{name})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rebuild %d: Gain(%s) = %x, want bit-identical %x (map-order float accumulation?)",
					rebuild, name, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestSortedStatsOrdering pins the flattening order sortedStats guarantees:
// messages ascending by (Name, Index), targets ascending by state, with
// per-target counts summing back to the message's occurrence count.
func TestSortedStatsOrdering(t *testing.T) {
	stats := sortedStats(asymmetricProduct(t).MessageStats())
	if len(stats) == 0 {
		t.Fatal("no stats")
	}
	for i := 1; i < len(stats); i++ {
		a, b := stats[i-1].msg, stats[i].msg
		if a.Name > b.Name || (a.Name == b.Name && a.Index >= b.Index) {
			t.Fatalf("stats out of order: %v before %v", a, b)
		}
	}
	for _, st := range stats {
		if st.count == 0 {
			t.Errorf("message %v has zero count", st.msg)
		}
		total := 0
		for i, tc := range st.targets {
			total += tc.count
			if i > 0 && st.targets[i-1].state >= tc.state {
				t.Fatalf("targets of %v out of order at %d", st.msg, i)
			}
		}
		if total != st.count {
			t.Errorf("message %v: target counts sum to %d, want %d", st.msg, total, st.count)
		}
	}
}

package inject

import (
	"math/rand"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/soc"
)

func ev(name string, index, occ int) soc.Event {
	return soc.Event{Msg: flow.IndexedMsg{Name: name, Index: index}, Occurrence: occ, Data: 0xAB}
}

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestTriggered(t *testing.T) {
	b := Bug{ID: 1, Kind: Drop, Target: "m", AfterIndex: 3}
	cases := []struct {
		e    soc.Event
		want bool
	}{
		{ev("m", 3, 0), true},
		{ev("m", 3, 2), true},
		{ev("m", 4, 5), true},
		{ev("m", 2, 2), false},
		{ev("other", 3, 2), false},
	}
	for _, tc := range cases {
		if got := b.Triggered(tc.e); got != tc.want {
			t.Errorf("Triggered(%v idx=%d occ=%d) = %v, want %v",
				tc.e.Msg, tc.e.Msg.Index, tc.e.Occurrence, got, tc.want)
		}
	}
}

// TestInstanceGating pins the arming semantics: AfterIndex arms the bug
// only for instances with index >= N, on every occurrence.
func TestInstanceGating(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		b := Bug{ID: 1, Kind: Drop, Target: "m", AfterIndex: n}
		for index := 0; index < 5; index++ {
			for occ := 0; occ < 3; occ++ {
				want := index >= n
				if got := b.Triggered(ev("m", index, occ)); got != want {
					t.Errorf("after index %d: Triggered(idx=%d occ=%d) = %v, want %v", n, index, occ, got, want)
				}
			}
		}
	}
}

func TestApplyKinds(t *testing.T) {
	r := rng()
	drop := Bug{ID: 7, Kind: Drop, Target: "m"}
	if out := drop.Apply(ev("m", 0, 0), r); !out.Drop || out.Bug != 7 {
		t.Errorf("drop outcome = %+v", out)
	}
	corrupt := Bug{ID: 8, Kind: Corrupt, Target: "m", XorMask: 0xF0}
	if out := corrupt.Apply(ev("m", 0, 0), r); out.XorMask != 0xF0 || out.Bug != 8 {
		t.Errorf("corrupt outcome = %+v", out)
	}
	// Zero mask defaults to flipping bit 0 so Corrupt always corrupts.
	corrupt0 := Bug{ID: 9, Kind: Corrupt, Target: "m"}
	if out := corrupt0.Apply(ev("m", 0, 0), r); out.XorMask != 1 {
		t.Errorf("default corrupt mask = %+v", out)
	}
	if out := drop.Apply(ev("other", 0, 0), r); out != (soc.Outcome{}) {
		t.Errorf("untargeted event perturbed: %+v", out)
	}
}

// TestProbabilityZeroMeansAlways pins that a bug fires on every triggered
// event and draws nothing from the run's rng.
func TestProbabilityZeroMeansAlways(t *testing.T) {
	b := Bug{ID: 1, Kind: Drop, Target: "m"}
	for i := 0; i < 10; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		if out := b.Apply(ev("m", i, 0), r); !out.Drop {
			t.Fatalf("triggered bug did not fire at index %d", i)
		}
		if got, want := r.Int63(), rand.New(rand.NewSource(int64(i))).Int63(); got != want {
			t.Fatalf("Apply drew from the rng at index %d", i)
		}
	}
}

func TestStringAndKindString(t *testing.T) {
	b := Bug{ID: 3, IP: "DMU", Depth: 3, Category: "Control", Kind: Drop,
		Target: "reqtot", Description: "never raised"}
	s := b.String()
	for _, want := range []string{"bug 3", "DMU", "drop", "reqtot", "never raised"} {
		if !strings.Contains(s, want) {
			t.Errorf("String = %q missing %q", s, want)
		}
	}
	if Corrupt.String() != "corrupt" || Drop.String() != "drop" {
		t.Error("Kind strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

func TestInjectors(t *testing.T) {
	injs := Injectors(Bug{ID: 1, Kind: Drop, Target: "a"}, Bug{ID: 2, Kind: Drop, Target: "b"})
	if len(injs) != 2 {
		t.Fatalf("len = %d", len(injs))
	}
	if out := injs[1].Apply(ev("b", 0, 0), rng()); out.Bug != 2 {
		t.Errorf("second injector outcome = %+v", out)
	}
}

// End to end: a drop bug makes a flow hang in the simulator.
func TestBugInSimulator(t *testing.T) {
	f := flow.CacheCoherence()
	bug := Bug{ID: 5, Kind: Drop, Target: "GntE", AfterIndex: 2}
	sc := soc.Scenario{Name: "cc", Launches: soc.Repeat(f, 3, 1, 0, 5)}
	res, err := soc.Run(sc, soc.Config{Seed: 1, Injectors: Injectors(bug)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("bug did not manifest")
	}
	if res.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (instances 2 and 3 wedge)", res.Completed)
	}
}

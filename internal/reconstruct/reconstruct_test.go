package reconstruct

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/synth"
)

// paperProduct builds the paper's running example: two legally indexed
// instances of the toy cache-coherence flow.
func paperProduct(t *testing.T) *interleave.Product {
	t.Helper()
	f := flow.CacheCoherence()
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// messageNames collects the distinct message names labeling product
// edges, sorted.
func messageNames(p *interleave.Product) []string {
	seen := map[string]bool{}
	for u := 0; u < p.NumStates(); u++ {
		for _, e := range p.Out(u) {
			seen[p.Msg(e).Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func tracedSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func sameTrace(a, b []flow.IndexedMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestProjectionValidateRejects(t *testing.T) {
	p := paperProduct(t)
	cases := []struct {
		name string
		pr   Projection
	}{
		{"duplicate traced name", Projection{Traced: []string{"ReqE", "ReqE"}}},
		{"unknown traced name", Projection{Traced: []string{"NoSuchMsg"}}},
		{"untraced observed message", Projection{
			Traced:   []string{"ReqE"},
			Observed: []flow.IndexedMsg{{Name: "GntE", Index: 1}},
		}},
		{"instance tag out of range", Projection{
			Traced:   []string{"ReqE"},
			Observed: []flow.IndexedMsg{{Name: "ReqE", Index: 7}},
		}},
		{"zero instance tag", Projection{
			Traced:   []string{"ReqE"},
			Observed: []flow.IndexedMsg{{Name: "ReqE", Index: 0}},
		}},
	}
	for _, tc := range cases {
		if _, err := tc.pr.Validate(p); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.pr)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	p := paperProduct(t)
	pr := Projection{Traced: []string{"ReqE"}}
	bad := []Options{
		{Mode: Exact, BeamWidth: 3},
		{Mode: Beam},
		{Mode: Beam, BeamWidth: 2, MaxWitnesses: 1},
		{Mode: Mode(9)},
		{MaxWitnesses: -1},
	}
	for _, opt := range bad {
		if _, err := Reconstruct(p, pr, opt); err == nil {
			t.Errorf("Reconstruct accepted invalid options %+v", opt)
		}
	}
	if _, err := Reconstruct(p, pr, Options{}); err != nil {
		t.Errorf("zero Options should be valid: %v", err)
	}
}

func TestModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{Exact, Beam} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != Exact {
		t.Errorf("empty mode should default to exact, got %v, %v", m, err)
	}
	if _, err := ParseMode("approximate"); err == nil {
		t.Error("ParseMode should reject unknown names")
	}
}

func TestPaperObservationReconstruction(t *testing.T) {
	p := paperProduct(t)
	pr := Projection{
		Traced: []string{"GntE", "ReqE"},
		Observed: []flow.IndexedMsg{
			{Name: "ReqE", Index: 1},
			{Name: "GntE", Index: 1},
			{Name: "ReqE", Index: 2},
		},
	}
	res, err := Reconstruct(p, pr, Options{MaxWitnesses: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 2 observation pins a single execution.
	if res.Ambiguity.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("Ambiguity = %v, want 1", res.Ambiguity)
	}
	if !res.Exact {
		t.Error("exact mode must report Exact")
	}
	if len(res.Witnesses) != 1 {
		t.Fatalf("witnesses = %d, want 1", len(res.Witnesses))
	}
	got := interleave.ProjectTrace(res.Witnesses[0], tracedSet(pr.Traced))
	if len(got) < len(pr.Observed) || !sameTrace(got[:len(pr.Observed)], pr.Observed) {
		t.Errorf("witness projection %v does not start with observation %v", got, pr.Observed)
	}
	if len(res.Survivors) != len(pr.Observed)+1 {
		t.Fatalf("survivors has %d entries, want %d", len(res.Survivors), len(pr.Observed)+1)
	}
	for j, s := range res.Survivors {
		if s < 1 {
			t.Errorf("Survivors[%d] = %d; a consistent execution keeps every step live", j, s)
		}
	}
}

// TestGroundTruthMembership is the core property: over a seeded sweep of
// synthetic universes (3–8 messages), the execution that produced a
// projection is always a member of the exact reconstruction set, the
// reconstruction count matches the enumerated witnesses, and tracing
// every message pins the execution uniquely (Ambiguity == 1).
func TestGroundTruthMembership(t *testing.T) {
	for messages := 3; messages <= 8; messages++ {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(messages)))
			instances, err := synth.Universe(messages, 2, synth.Params{}, rng)
			if err != nil {
				t.Fatal(err)
			}
			p, err := interleave.New(instances)
			if err != nil {
				t.Fatal(err)
			}
			truth := p.RandomExecution(rng).Trace(p)
			names := messageNames(p)

			// A random traced subset.
			var traced []string
			for _, n := range names {
				if rng.Intn(2) == 0 {
					traced = append(traced, n)
				}
			}
			pr := Projection{
				Traced:   traced,
				Observed: interleave.ProjectTrace(truth, tracedSet(traced)),
			}
			res, err := Reconstruct(p, pr, Options{MaxWitnesses: 1 << 16})
			if err != nil {
				t.Fatalf("messages %d seed %d: %v", messages, seed, err)
			}
			if !res.Exact {
				t.Fatalf("messages %d seed %d: exact mode not exact", messages, seed)
			}
			if int64(len(res.Witnesses)) != res.Ambiguity.Int64() {
				t.Fatalf("messages %d seed %d: %d witnesses vs Ambiguity %v",
					messages, seed, len(res.Witnesses), res.Ambiguity)
			}
			found := false
			for _, w := range res.Witnesses {
				if sameTrace(w, truth) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("messages %d seed %d: ground truth %v missing from reconstruction set",
					messages, seed, truth)
			}

			// Tracing everything disambiguates completely.
			full := Projection{
				Traced:   names,
				Observed: interleave.ProjectTrace(truth, tracedSet(names)),
			}
			fres, err := Reconstruct(p, full, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if fres.Ambiguity.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("messages %d seed %d: fully traced Ambiguity = %v, want 1",
					messages, seed, fres.Ambiguity)
			}
		}
	}
}

func TestWitnessCapAndNodeBudget(t *testing.T) {
	p := paperProduct(t)
	pr := Projection{Traced: []string{"ReqE"}} // nothing observed: all 6 paths consistent
	res, err := Reconstruct(p, pr, Options{MaxWitnesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Witnesses) != 2 {
		t.Errorf("witness cap: got %d, want 2", len(res.Witnesses))
	}
	if res.Ambiguity.Cmp(big.NewInt(6)) != 0 {
		t.Errorf("Ambiguity = %v, want 6 (the cap truncates witnesses, never the count)", res.Ambiguity)
	}
	traced, err := pr.Validate(p)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := p.NewCounter(traced, nil, interleave.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := &Result{}
	enumerateWitnesses(p, ctr, 100, 3, budgeted)
	if len(budgeted.Witnesses) >= 6 {
		t.Errorf("node budget 3 should truncate enumeration, got %d witnesses", len(budgeted.Witnesses))
	}
	full := &Result{}
	enumerateWitnesses(p, ctr, 100, maxWitnessNodes, full)
	if len(full.Witnesses) != 6 {
		t.Errorf("full budget: got %d witnesses, want all 6", len(full.Witnesses))
	}
}

func TestExpectedAmbiguityBounds(t *testing.T) {
	p := paperProduct(t)
	total := p.TotalPaths()

	// Tracing nothing: every pair collides, expectation = TotalPaths.
	pairs, err := PairCount(p, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Mul(total, total); pairs.Cmp(want) != 0 {
		t.Errorf("blind PairCount = %v, want TotalPaths² = %v", pairs, want)
	}
	blind, err := ExpectedAmbiguity(p, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if blind != 6 {
		t.Errorf("blind ExpectedAmbiguity = %g, want 6", blind)
	}

	// Tracing everything: projections are the executions themselves here
	// (each edge label determines the step), so only diagonal pairs remain.
	all := tracedSet(messageNames(p))
	amb, err := ExpectedAmbiguity(p, all)
	if err != nil {
		t.Fatal(err)
	}
	if amb != 1 {
		t.Errorf("fully traced ExpectedAmbiguity = %g, want 1", amb)
	}

	// Monotone sanity: a partial set sits between the extremes.
	mid, err := ExpectedAmbiguity(p, map[string]bool{"ReqE": true})
	if err != nil {
		t.Fatal(err)
	}
	if mid < 1 || mid > blind {
		t.Errorf("partial ExpectedAmbiguity = %g, want within [1, %g]", mid, blind)
	}
}

// TestPairCountMatchesDefinition checks the pair DP against its
// definition: enumerate all executions, project each, and count ordered
// pairs with equal projections.
func TestPairCountMatchesDefinition(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		instances, err := synth.Universe(4+int(seed%3), 2, synth.Params{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := interleave.New(instances)
		if err != nil {
			t.Fatal(err)
		}
		names := messageNames(p)
		var traced []string
		for _, n := range names {
			if rng.Intn(2) == 0 {
				traced = append(traced, n)
			}
		}
		set := tracedSet(traced)

		var projections [][]flow.IndexedMsg
		p.Executions(func(ex interleave.Execution) bool {
			projections = append(projections, interleave.ProjectTrace(ex.Trace(p), set))
			return true
		})
		brute := 0
		for _, a := range projections {
			for _, b := range projections {
				if sameTrace(a, b) {
					brute++
				}
			}
		}
		got, err := PairCount(p, set)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(int64(brute))) != 0 {
			t.Errorf("seed %d: PairCount = %v, brute force = %d (traced %v)", seed, got, brute, traced)
		}
	}
}

func TestPairCountStateLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 6 flows x 5 messages each: a chain product with 6^6 = 46656 states.
	instances, err := synth.Universe(30, 6, synth.Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New(instances)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() <= MaxAmbiguityStates {
		t.Fatalf("test universe too small (%d states) to trip the limit", p.NumStates())
	}
	if _, err := PairCount(p, map[string]bool{}); err == nil {
		t.Error("PairCount should refuse products beyond MaxAmbiguityStates")
	}
}

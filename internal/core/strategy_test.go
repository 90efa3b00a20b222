package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tracescale/internal/interleave"
	"tracescale/internal/synth"
)

// universeEvaluator builds an evaluator over a synth.Universe instance —
// the chain-flow family whose message count is exact.
func universeEvaluator(t *testing.T, messages, flows int, p synth.Params, seed int64) *Evaluator {
	t.Helper()
	insts, err := synth.Universe(messages, flows, p, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	prod, err := interleave.New(insts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(prod)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// synthEvaluator builds an evaluator over a generated flow family.
func synthEvaluator(t testing.TB, flows, states int, branch, groupProb float64, seed int64) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	insts, err := synth.Scenario(flows, synth.Params{States: states, Branch: branch, MaxWidth: 8, GroupProb: groupProb}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New(insts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMethodRegistryRoundTrip pins the registry as the single source of
// truth: every registered Method round-trips through its String form, names
// are unique, and the two failure modes (unknown name, unregistered value)
// stay diagnosable.
func TestMethodRegistryRoundTrip(t *testing.T) {
	seen := map[string]Method{}
	for m := range Method(len(registry)) {
		name := m.String()
		if name == "" || strings.HasPrefix(name, "Method(") {
			t.Errorf("method %d has no registered name (String() = %q)", int(m), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("methods %v and %v share the name %q", prev, m, name)
		}
		seen[name] = m
		back, err := ParseMethod(name)
		if err != nil {
			t.Errorf("ParseMethod(%q): %v", name, err)
		}
		if back != m {
			t.Errorf("ParseMethod(%q) = %v, want %v", name, back, m)
		}
	}
	if got := len(MethodNames()); got != len(registry) {
		t.Errorf("MethodNames() has %d entries, the registry has %d", got, len(registry))
	}
	if m, err := ParseMethod(""); err != nil || m != Exhaustive {
		t.Errorf("ParseMethod(\"\") = %v, %v; want the Exhaustive zero default", m, err)
	}
	if _, err := ParseMethod("simulated-annealing"); err == nil {
		t.Error("ParseMethod accepted an unregistered name")
	} else if !strings.Contains(err.Error(), "branch-bound") {
		t.Errorf("unknown-method error %q does not list the registered names", err)
	}
	if got := Method(99).String(); !strings.Contains(got, "99") {
		t.Errorf("Method(99).String() = %q, want a diagnosable fallback", got)
	}
}

// TestUnsupportedOptionsRejected pins ValidateConfig for every registered
// strategy: a Config that asks for KeepCandidates against any method but
// Exhaustive, or for Workers > 1 against any method, is an error up front
// — never a silently ignored knob (the regression this suite exists for:
// Greedy and Knapsack used to drop KeepCandidates on the floor).
func TestUnsupportedOptionsRejected(t *testing.T) {
	e := universeEvaluator(t, 10, 2, synth.Params{MaxWidth: 4}, 1)
	for m := range Method(len(registry)) {
		t.Run(m.String(), func(t *testing.T) {
			keep := Config{BufferWidth: 8, Method: m, KeepCandidates: true}
			verr := ValidateConfig(keep)
			res, err := Select(e, keep)
			if m == Exhaustive {
				if verr != nil || err != nil {
					t.Fatalf("KeepCandidates supported but rejected: %v / %v", verr, err)
				}
				if len(res.Candidates) == 0 {
					t.Error("KeepCandidates honored but Result.Candidates is empty")
				}
			} else {
				if verr == nil || err == nil {
					t.Fatalf("KeepCandidates unsupported but accepted: %v / %v", verr, err)
				}
				want := "core: method " + m.String() + " does not support KeepCandidates (supported by: exhaustive)"
				if verr.Error() != want || err.Error() != want {
					t.Errorf("rejection %q / %q, want %q", verr, err, want)
				}
			}

			// Every strategy searches serially: Workers > 1 is rejected by
			// name, while 0 and 1 are valid everywhere.
			if _, err := Select(e, Config{BufferWidth: 8, Method: m, Workers: 4}); err == nil {
				t.Fatal("Workers=4 accepted")
			} else if !strings.Contains(err.Error(), "does not support Workers > 1") {
				t.Errorf("rejection %q does not name the option", err)
			}
			for _, w := range []int{0, 1} {
				if _, err := Select(e, Config{BufferWidth: 8, Method: m, Workers: w}); err != nil {
					t.Errorf("Workers=%d rejected: %v", w, err)
				}
			}
		})
	}
}

// TestBranchBoundMatchesExhaustiveDifferential pins branch-and-bound
// against the exhaustive reference on random universes up to 22 messages —
// the largest family the mask scan still enumerates: byte-identical
// Candidates (same messages, width, gain, coverage — the canonical rescore
// reproduces the scanMasks summation order bit for bit), with
// infeasibility parity.
func TestBranchBoundMatchesExhaustiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	feasible := 0
	for trial := 0; trial < 30; trial++ {
		messages := 4 + rng.Intn(15) // 4..18 cheap; the tail below covers 20-22
		if trial >= 27 {
			messages = 20 + trial - 27 // 20, 21, 22
		}
		flows := 1 + rng.Intn(3)
		if flows > messages {
			flows = messages
		}
		e := universeEvaluator(t, messages, flows,
			synth.Params{MaxWidth: 1 + rng.Intn(8), IPs: 3}, 100+int64(trial))
		budget := 1 + rng.Intn(20)

		cfg := Config{BufferWidth: budget, MaxCandidates: defaultMaxCandidates}
		ex, _, exErr := selectExhaustive(context.Background(), e, cfg)
		bb, bbErr := selectBranchBound(context.Background(), e, cfg)
		if (exErr == nil) != (bbErr == nil) {
			t.Fatalf("trial %d (n=%d, budget %d): exhaustive err %v vs branch-bound err %v",
				trial, messages, budget, exErr, bbErr)
		}
		if exErr != nil {
			continue
		}
		feasible++
		if !reflect.DeepEqual(bb, ex) {
			t.Errorf("trial %d (n=%d, budget %d): branch-bound %+v != exhaustive %+v",
				trial, messages, budget, bb, ex)
		}
	}
	if feasible < 20 {
		t.Fatalf("only %d feasible trials — the generator parameters drifted", feasible)
	}
}

// TestBranchBoundScalesPastExhaustiveGuard is the headline scalability
// claim: on a 120-message universe the exhaustive scan refuses to
// enumerate 2^120 masks, while branch-and-bound (exact) and greedy both
// select — and the exact search is never beaten by the heuristic.
func TestBranchBoundScalesPastExhaustiveGuard(t *testing.T) {
	e := universeEvaluator(t, 120, 2, synth.Params{MaxWidth: 6, IPs: 4}, 42)
	if n := len(e.Universe()); n != 120 {
		t.Fatalf("universe has %d messages, want 120", n)
	}
	cfg := Config{BufferWidth: 32}

	ecfg := cfg
	ecfg.Method = Exhaustive
	if _, err := Select(e, ecfg); err == nil {
		t.Fatal("exhaustive accepted a 120-message universe")
	} else if !strings.Contains(err.Error(), "exceed MaxCandidates") {
		t.Fatalf("exhaustive guard error = %q, want the MaxCandidates refusal", err)
	}

	results := map[Method]*Result{}
	for _, m := range []Method{BranchBound, Greedy, Knapsack} {
		mcfg := cfg
		mcfg.Method = m
		res, err := Select(e, mcfg)
		if err != nil {
			t.Fatalf("%v on 120 messages: %v", m, err)
		}
		if res.SelectedWidth > 32 {
			t.Errorf("%v exceeded the 32-bit budget: %d", m, res.SelectedWidth)
		}
		results[m] = res
	}
	bb, gr, kn := results[BranchBound], results[Greedy], results[Knapsack]
	const eps = 1e-9
	if bb.SelectedGain < gr.SelectedGain-eps {
		t.Errorf("branch-bound gain %.12f below greedy's %.12f — the exact search lost to the heuristic",
			bb.SelectedGain, gr.SelectedGain)
	}
	// Knapsack is the other exact Step-2 solver: the optima must agree.
	if bb.SelectedGain < kn.SelectedGain-eps || bb.SelectedGain > kn.SelectedGain+eps {
		t.Errorf("branch-bound gain %.12f != knapsack gain %.12f (both exact)",
			bb.SelectedGain, kn.SelectedGain)
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/synth"
)

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

// Parallel exhaustive enumeration must return a byte-identical Result to
// the serial scan — Selected, Gain, Coverage, Packed, and the full
// Candidates list in enumeration order — on random synth flow families,
// across worker counts that do and don't divide the mask space evenly.
func TestSelectExhaustiveParallelMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := synthEvaluator(t, 1+rng.Intn(3), 3+rng.Intn(4), 0.4, 0.4, seed)
		budget := 4 + rng.Intn(24)
		serial, err := Select(e, Config{BufferWidth: budget, KeepCandidates: true, Workers: 1})
		if err != nil {
			// Nothing fits: the parallel path must fail identically.
			for _, w := range []int{2, 3, 8} {
				if _, perr := Select(e, Config{BufferWidth: budget, KeepCandidates: true, Workers: w}); perr == nil {
					return false
				}
			}
			return true
		}
		for _, w := range []int{2, 3, 5, 8} {
			par, err := Select(e, Config{BufferWidth: budget, KeepCandidates: true, Workers: w})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(serial, par) {
				t.Logf("seed %d workers %d: serial %+v != parallel %+v", seed, w, serial, par)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The paper's worked example must keep selecting {ReqE, GntE} — the
// lowest-mask member of the three gain-tied pairs — under every worker
// count (the {ReqE, GntE} tie-break of §3 survives sharding).
func TestSelectExhaustiveParallelTieBreak(t *testing.T) {
	f := flow.CacheCoherence()
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 3, 4, 7} {
		res, err := Select(e, Config{BufferWidth: 2, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Selected; len(got) != 2 || got[0] != "ReqE" || got[1] != "GntE" {
			t.Errorf("workers=%d: Selected = %v, want [ReqE GntE]", w, got)
		}
	}
}

// A worker count far above the mask count must not deadlock or drop masks.
func TestSelectExhaustiveMoreWorkersThanMasks(t *testing.T) {
	e := synthEvaluator(t, 1, 3, 0, 0, 11) // 2 messages -> 3 masks
	serial, err := Select(e, Config{BufferWidth: 16, KeepCandidates: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Select(e, Config{BufferWidth: 16, KeepCandidates: true, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("serial %+v != parallel %+v", serial, par)
	}
}

// TestWorkersMatchSerialDifferential is the determinism contract of the
// exhaustive worker fan-out: across 36 seeded universes of 6-16 messages,
// some keeping every candidate, a selection at Workers 2 and 4 marshals
// byte-identical to Workers 1, and an infeasible one fails with identical
// error text.
func TestWorkersMatchSerialDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	marshal := func(res *Result) []byte {
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	feasible := 0
	for trial := 0; trial < 36; trial++ {
		messages := 6 + rng.Intn(11) // 6..16: exhaustive territory
		flows := 1 + rng.Intn(3)
		if flows > messages {
			flows = messages
		}
		budget := 1 + rng.Intn(24)
		e := universeEvaluator(t, messages, flows,
			synth.Params{MaxWidth: 1 + rng.Intn(7), IPs: 3}, 9000+int64(trial))

		cfg := Config{BufferWidth: budget, Workers: 1}
		if messages <= 10 && trial%5 == 0 {
			cfg.KeepCandidates = true
		}
		serial, serr := Select(e, cfg)
		var want []byte
		if serr == nil {
			feasible++
			want = marshal(serial)
		}
		for _, workers := range []int{2, 4} {
			pcfg := cfg
			pcfg.Workers = workers
			par, perr := Select(e, pcfg)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("trial %d (n=%d budget=%d, %d workers): serial err %v vs parallel err %v",
					trial, messages, budget, workers, serr, perr)
			}
			if serr != nil {
				if serr.Error() != perr.Error() {
					t.Errorf("trial %d: error text diverged: %q vs %q", trial, serr, perr)
				}
				continue
			}
			if got := marshal(par); !bytes.Equal(got, want) {
				t.Errorf("trial %d (n=%d budget=%d, %d workers): parallel result diverged\n got %s\nwant %s",
					trial, messages, budget, workers, got, want)
			}
		}
	}
	if feasible < 30 {
		t.Fatalf("only %d feasible trials — the generator parameters drifted", feasible)
	}
}

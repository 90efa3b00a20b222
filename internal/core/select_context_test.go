package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/synth"
)

// observedChainEvaluator builds an observed evaluator over one long synth
// chain: n messages give a 2^n mask space with a tiny (n+1 state) product,
// so exhaustive scans run long without an expensive interleave build.
func observedChainEvaluator(t testing.TB, messages int, reg *obs.Registry) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	f, err := synth.Flow("cancel", synth.Params{States: messages + 1, MaxWidth: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.NewObserved([]flow.Instance{{Flow: f, Index: 1}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// SelectContext with a background context must be byte-identical to Select
// — on the paper's worked example and on random synth families.
func TestSelectContextBackgroundIdentical(t *testing.T) {
	f := flow.CacheCoherence()
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Select(e, Config{BufferWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := SelectContext(context.Background(), e, Config{BufferWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ctxed) {
		t.Errorf("SelectContext(background) %+v != Select %+v", ctxed, plain)
	}
	if got := ctxed.Selected; len(got) != 2 || got[0] != "ReqE" || got[1] != "GntE" {
		t.Errorf("Selected = %v, want [ReqE GntE]", got)
	}

	for seed := int64(0); seed < 10; seed++ {
		e := synthEvaluator(t, 2, 4, 0.4, 0.3, seed)
		cfg := Config{BufferWidth: 8, KeepCandidates: true}
		plain, perr := Select(e, cfg)
		ctxed, cerr := SelectContext(context.Background(), e, cfg)
		if (perr == nil) != (cerr == nil) {
			t.Fatalf("seed %d: Select err %v vs SelectContext err %v", seed, perr, cerr)
		}
		if perr == nil && !reflect.DeepEqual(plain, ctxed) {
			t.Errorf("seed %d: results diverge", seed)
		}
	}
}

// A context cancelled before the scan starts must abort it at its first
// poll boundary: SelectContext returns the context's error, no partial
// result, and the abort is visible in the obs counters.
func TestSelectContextPreCancelled(t *testing.T) {
	reg := obs.NewRegistry()
	e := observedChainEvaluator(t, 18, reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SelectContext(ctx, e, Config{BufferWidth: 16})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled SelectContext leaked a result: %+v", res)
	}
	if got := reg.Snapshot()["core.select.cancelled"]; got != 1 {
		t.Errorf("core.select.cancelled = %d, want 1", got)
	}
}

// Cancelling mid-scan must make SelectContext return promptly with the
// context's error (the scan aborts instead of finishing the 2^22-mask
// space).
func TestSelectContextCancelMidScan(t *testing.T) {
	reg := obs.NewRegistry()
	e := observedChainEvaluator(t, 22, reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := SelectContext(ctx, e, Config{BufferWidth: 24})
	elapsed := time.Since(start)
	if err == nil {
		// The full 2^22-mask scan outran the 2ms cancel — only plausible on
		// hardware far faster than anything CI runs on; nothing to assert.
		t.Skipf("scan finished in %v before the cancel landed", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled select took %v — the scan is not polling the context", elapsed)
	}
	if got := reg.Snapshot()["core.select.cancelled"]; got != 1 {
		t.Errorf("core.select.cancelled = %d, want 1", got)
	}
}

// An unobserved evaluator with an explicit Workers 1 aborts the same way.
func TestSelectContextPreCancelledSerial(t *testing.T) {
	e := synthEvaluator(t, 1, 4, 0, 0, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectContext(ctx, e, Config{BufferWidth: 8, Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
}

// A negative MaxCandidates must be rejected outright: uint64 conversion at
// the enumeration guard would wrap it to ~2^64 and unbound the scan.
func TestSelectNegativeMaxCandidates(t *testing.T) {
	e := synthEvaluator(t, 1, 4, 0, 0, 5)
	for _, mc := range []int{-1, -1 << 40} {
		_, err := Select(e, Config{BufferWidth: 8, MaxCandidates: mc})
		if err == nil {
			t.Errorf("MaxCandidates=%d: Select accepted a negative enumeration bound", mc)
		}
	}
	// Zero still means the default, and the guard still trips past it.
	if _, err := Select(e, Config{BufferWidth: 8, MaxCandidates: 0}); err != nil {
		t.Errorf("MaxCandidates=0 (default) failed: %v", err)
	}
}

// Repeat observed Selects at one budget must not re-run the countFeasible
// subset-sum DP: the per-budget memo on the Evaluator absorbs them, which
// the core.select.feasible_dp_runs counter makes visible.
func TestCountFeasibleMemoized(t *testing.T) {
	reg := obs.NewRegistry()
	e := observedChainEvaluator(t, 8, reg)
	for i := 0; i < 3; i++ {
		if _, err := Select(e, Config{BufferWidth: 12}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot()["core.select.feasible_dp_runs"]; got != 1 {
		t.Errorf("feasible_dp_runs = %d after 3 selects at one budget, want 1", got)
	}
	if _, err := Select(e, Config{BufferWidth: 13}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()["core.select.feasible_dp_runs"]; got != 2 {
		t.Errorf("feasible_dp_runs = %d after a second budget, want 2", got)
	}
	// The memoized count must equal the recomputed one.
	if a, b := e.countFeasible(12), e.countFeasible(12); a != b || a < 1 {
		t.Errorf("memoized countFeasible(12) = %d then %d", a, b)
	}
}

package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/synth"
)

func ccInstances(k int) []flow.Instance {
	f := flow.CacheCoherence()
	out := make([]flow.Instance, k)
	for i := range out {
		out[i] = flow.Instance{Flow: f, Index: i + 1}
	}
	return out
}

func TestSessionSelectMatchesCore(t *testing.T) {
	s, err := NewSession(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Select(core.Config{BufferWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 || res.Selected[0] != "ReqE" || res.Selected[1] != "GntE" {
		t.Errorf("Selected = %v, want [ReqE GntE]", res.Selected)
	}
	// Same Config: the memoized Result (same pointer) comes back.
	again, err := s.Select(core.Config{BufferWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Error("repeated Select at one Config did not return the memoized Result")
	}
	// Different Config: a fresh selection.
	wider, err := s.Select(core.Config{BufferWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wider == res {
		t.Error("different Config returned the same memoized Result")
	}
}

func TestCacheHitOnIdenticalScenario(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCacheObs(reg, 0)
	// Structurally identical instance sets built from distinct *Flow
	// pointers must share one Session.
	a, err := c.Session([]flow.Instance{
		{Flow: flow.CacheCoherence(), Index: 1},
		{Flow: flow.CacheCoherence(), Index: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Session(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical scenarios got distinct Sessions")
	}
	if snap := reg.Snapshot(); snap["pipeline.cache.hits"] != 1 || snap["pipeline.cache.misses"] != 1 {
		t.Errorf("pipeline.cache hits/misses = %d/%d, want 1/1", snap["pipeline.cache.hits"], snap["pipeline.cache.misses"])
	}
}

func TestCacheMissOnChangedIndexOrWidth(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCacheObs(reg, 0)
	base, err := c.Session(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}

	reindexed := ccInstances(2)
	reindexed[1].Index = 3
	other, err := c.Session(reindexed)
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("changed instance index reused the Session")
	}

	// A flow differing only in one message width is a different scenario.
	b := flow.NewBuilder("cachecoherence")
	b.States("Init", "Wait", "GntW", "Done")
	b.Init("Init")
	b.Stop("Done")
	b.Atomic("GntW")
	b.Message(flow.Message{Name: "ReqE", Width: 2, Src: "1", Dst: "Dir"})
	b.Message(flow.Message{Name: "GntE", Width: 1, Src: "Dir", Dst: "1"})
	b.Message(flow.Message{Name: "Ack", Width: 1, Src: "1", Dst: "Dir"})
	b.Chain([]string{"Init", "Wait", "GntW", "Done"}, []string{"ReqE", "GntE", "Ack"})
	wide, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	widened, err := c.Session([]flow.Instance{{Flow: wide, Index: 1}, {Flow: wide, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if widened == base {
		t.Error("changed message width reused the Session")
	}
	if hits := reg.Snapshot()["pipeline.cache.hits"]; hits != 0 {
		t.Errorf("unexpected cache hits: %d", hits)
	}
}

// Distinct synth scenarios must never alias to one fingerprint, and each
// cached Session must keep answering for its own scenario.
func TestCacheNoCrossScenarioAliasing(t *testing.T) {
	c := NewCacheObs(nil, 0)
	seen := make(map[string]int64)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		insts, err := synth.Scenario(1+rng.Intn(2), synth.Params{States: 3 + rng.Intn(3), MaxWidth: 6}, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Session(insts)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[s.Fingerprint()]; dup {
			t.Fatalf("seeds %d and %d alias to fingerprint %s", prev, seed, s.Fingerprint())
		}
		seen[s.Fingerprint()] = seed
		// The Session's universe must be the scenario's own messages.
		want := 0
		for _, in := range insts {
			want += in.Flow.NumMessages()
		}
		if got := len(s.Evaluator().Universe()); got != want {
			t.Errorf("seed %d: universe has %d messages, scenario has %d", seed, got, want)
		}
	}
	if c.Len() != 20 {
		t.Errorf("cache holds %d sessions, want 20", c.Len())
	}
}

// Workers 0 and 1 are the valid values and select the same Result, so the
// memo key must normalize Workers away: Workers=0 then Workers=1 is a
// cache hit, not a recompute.
func TestSelectMemoNormalizesWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSessionObs(ccInstances(2), reg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Select(core.Config{BufferWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Select(core.Config{BufferWidth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("Workers=1 recomputed a Result memoized at Workers=0")
	}
	snap := reg.Snapshot()
	if snap["pipeline.results.hits"] != 1 || snap["pipeline.results.misses"] != 1 {
		t.Errorf("hits=%d misses=%d, want 1 hit and 1 miss",
			snap["pipeline.results.hits"], snap["pipeline.results.misses"])
	}
}

// The memo key normalizes Workers away, which cuts both ways: a Config a
// strategy cannot honor must be rejected BEFORE the lookup, or the cached
// Workers=0 result would silently answer for an invalid Workers=4 request.
func TestSelectRejectsUnsupportedWorkersDespiteMemo(t *testing.T) {
	s, err := NewSession(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.Greedy, core.Exhaustive} {
		// Prime the memo with a valid serial selection.
		if _, err := s.Select(core.Config{BufferWidth: 2, Method: m}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Select(core.Config{BufferWidth: 2, Method: m, Workers: 4}); err == nil {
			t.Errorf("Workers=4 on %s answered from the memo instead of being rejected", m)
		} else if !strings.Contains(err.Error(), "does not support Workers") {
			t.Errorf("rejection %q does not name the option", err)
		}
	}
	if _, err := s.Select(core.Config{BufferWidth: 2, Method: core.Greedy, KeepCandidates: true}); err == nil {
		t.Error("KeepCandidates on greedy accepted")
	}
}

// A cancelled SelectContext caller gets the context's error, and the
// session is not poisoned: the next caller computes and succeeds.
func TestSelectContextCancelledCallerReleasesFlight(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSessionObs(ccInstances(2), reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SelectContext(ctx, core.Config{BufferWidth: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The session must not be poisoned: a fresh caller succeeds.
	res, err := s.Select(core.Config{BufferWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Error("post-cancel Select returned an empty selection")
	}
}

// Selection errors must not be memoized: a Config that fails (an unknown
// method) fails on every call, and a subsequently valid Config still
// works.
func TestSelectErrorNotMemoized(t *testing.T) {
	s, err := NewSession(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Select(core.Config{BufferWidth: 2, Method: core.Method(99)}); err == nil {
			t.Fatal("unknown method did not error")
		}
	}
	if _, err := s.Select(core.Config{BufferWidth: 2}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent requests for one scenario must converge on a single Session
// and memoized Result (exercised under -race in CI).
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCacheObs(nil, 0)
	var wg sync.WaitGroup
	sessions := make([]*Session, 8)
	results := make([]*core.Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Session(ccInstances(2))
			if err != nil {
				t.Error(err)
				return
			}
			res, err := s.Select(core.Config{BufferWidth: 2})
			if err != nil {
				t.Error(err)
				return
			}
			sessions[i] = s
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if sessions[i] != sessions[0] {
			t.Fatal("concurrent callers got distinct Sessions")
		}
		if results[i] != results[0] {
			t.Fatal("concurrent callers got distinct memoized Results")
		}
	}
}

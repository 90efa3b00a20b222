package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

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
	c := NewCache()
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
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("Stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

func TestCacheMissOnChangedIndexOrWidth(t *testing.T) {
	c := NewCache()
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
	if hits, _ := c.Stats(); hits != 0 {
		t.Errorf("unexpected cache hits: %d", hits)
	}
}

// Distinct synth scenarios must never alias to one fingerprint, and each
// cached Session must keep answering for its own scenario.
func TestCacheNoCrossScenarioAliasing(t *testing.T) {
	c := NewCache()
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

// Configs differing only in Workers select byte-identical Results (the
// pinned parallel-equals-serial property), so the memo key must normalize
// Workers away: Workers=1 then Workers=4 is a cache hit, not a recompute.
func TestSelectMemoNormalizesWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSessionObs(ccInstances(2), reg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Select(core.Config{BufferWidth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Select(core.Config{BufferWidth: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("Workers=4 recomputed a Result memoized at Workers=1")
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
	// Prime the memo with a valid serial greedy selection.
	if _, err := s.Select(core.Config{BufferWidth: 2, Method: core.Greedy}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(core.Config{BufferWidth: 2, Method: core.Greedy, Workers: 4}); err == nil {
		t.Error("Workers=4 on greedy answered from the memo instead of being rejected")
	} else if !strings.Contains(err.Error(), "does not support Workers") {
		t.Errorf("rejection %q does not name the option", err)
	}
	if _, err := s.Select(core.Config{BufferWidth: 2, Method: core.Greedy, KeepCandidates: true}); err == nil {
		t.Error("KeepCandidates on greedy accepted")
	}
}

// Concurrent identical selections must share one singleflighted
// computation: one miss, the rest join the flight, and everyone gets the
// same Result pointer.
func TestSelectSingleflightSharesOneCompute(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSessionObs(ccInstances(2), reg)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Select(core.Config{BufferWidth: 2, Workers: i%4 + 1})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent identical selections returned distinct Results")
		}
	}
	snap := reg.Snapshot()
	if snap["pipeline.results.misses"] != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", snap["pipeline.results.misses"])
	}
	if got := snap["pipeline.results.hits"] + snap["pipeline.results.shared"]; got != callers-1 {
		t.Errorf("hits+shared = %d, want %d", got, callers-1)
	}
}

// A cancelled SelectContext caller must return promptly with the context
// error; since it is the only waiter, the flight itself is cancelled and
// the next call starts a fresh computation that succeeds.
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
	// Eventually no flight lingers (the goroutine may still be retiring).
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.flights)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d flights still registered after completion", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Selection errors must not be memoized: a Config that fails (nothing
// fits) fails on every call without wedging the flight table, and a
// subsequently valid Config still works.
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
	c := NewCache()
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

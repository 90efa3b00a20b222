package pipeline

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/reconstruct"
)

// listings returns the forward, reversed and rotated listings of insts.
func listings(insts []flow.Instance) [][]flow.Instance {
	n := len(insts)
	rev := make([]flow.Instance, n)
	rot := make([]flow.Instance, n)
	for i, in := range insts {
		rev[n-1-i] = in
		rot[(i+1)%n] = in
	}
	return [][]flow.Instance{insts, rev, rot}
}

// TestCachedSessionAnswersEveryListing: the evaluator's universe follows
// the instance listing, and with it Selected's order and every
// lowest-index tie-break, so a cached session must answer each listing
// exactly as a fresh session for that listing does. Reusing one listing's
// session for a permutation of it (a permutation-invariant key) answers
// T2 scenario 3 reversed at 8 bits with the forward listing's
// [piowcrd] + dmusiird.rdstat instead of its own [ncumcurd].
func TestCachedSessionAnswersEveryListing(t *testing.T) {
	c := NewCacheObs(nil, 0)
	methods := []core.Method{core.Exhaustive, core.Knapsack, core.BranchBound, core.Greedy}
	for id := 1; id <= 3; id++ {
		s, err := opensparc.ScenarioByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for li, insts := range listings(s.Instances()) {
			cached, err := c.Session(insts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewSession(insts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				for _, w := range []int{1, 4, 8, 16, 24, 32, 48} {
					cfg := core.Config{BufferWidth: w, Method: m}
					got, gotErr := cached.Select(cfg)
					want, wantErr := fresh.Select(cfg)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("scenario %d listing %d %s@%d: cached error %v, fresh %v", id, li, m, w, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("scenario %d listing %d %s@%d: cached session selected %v + %v, fresh %v + %v",
							id, li, m, w, got.Selected, got.Packed, want.Selected, want.Packed)
					}
				}
			}
		}
	}
}

// TestSessionProductBuiltOnceConcurrently: the product is built lazily,
// exactly once, however many goroutines race for it through Product and
// Reconstruct. Run under -race in CI.
func TestSessionProductBuiltOnceConcurrently(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSessionObs(ccInstances(3), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(core.Config{BufferWidth: 2}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot()["interleave.builds"]; n != 0 {
		t.Fatalf("interleave.builds = %d before any product consumer, want 0", n)
	}
	const n = 8
	products := make([]*interleave.Product, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				products[i] = s.Product()
				return
			}
			pr := reconstruct.Projection{Traced: []string{"ReqE"}, Observed: []flow.IndexedMsg{{Name: "ReqE", Index: 1 + i%3}}}
			if _, err := s.Reconstruct(pr, reconstruct.Options{}); err != nil {
				t.Error(err)
			}
			products[i] = s.Product()
		}(i)
	}
	wg.Wait()
	for i, p := range products {
		if p != products[0] {
			t.Fatalf("goroutine %d got a different product", i)
		}
	}
	if got, want := products[0].NumStates(), s.Evaluator().NumStates(); got != want {
		t.Errorf("product has %d states, closed form %d", got, want)
	}
	if n := reg.Snapshot()["interleave.builds"]; n != 1 {
		t.Errorf("interleave.builds = %d, want exactly 1", n)
	}
}

// TestCacheRefusesOversizedSetBeforeBuilding: an instance set over
// interleave.MaxStates fails Cache.Session with the interleave error, and
// is not cached.
func TestCacheRefusesOversizedSetBeforeBuilding(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCacheObs(reg, 0)
	_, err := c.Session(ccInstances(13))
	if want := fmt.Sprintf("interleave: product exceeds %d states", interleave.MaxStates); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if c.Len() != 0 || reg.Snapshot()["interleave.builds"] != 0 {
		t.Errorf("cache len %d, interleave.builds %d; want 0, 0", c.Len(), reg.Snapshot()["interleave.builds"])
	}
}

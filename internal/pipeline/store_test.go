package pipeline

import (
	"strings"
	"testing"

	"tracescale/internal/core"
	"tracescale/internal/obs"
)

// storedResult builds a small but fully-populated Result.
func storedResult() *core.Result {
	return &core.Result{
		Selected:         []string{"ReqE", "GntE"},
		Packed:           []core.PackedGroup{{Message: "Data", Group: "hdr", Width: 1}},
		Width:            3,
		Utilization:      1.5,
		Gain:             1.0397207708399179,
		Coverage:         0.6428571428571429,
		SelectedGain:     1.0397207708399179,
		SelectedCoverage: 0.5714285714285714,
		SelectedWidth:    2,
	}
}

func TestStoreKeyNormalizesWorkers(t *testing.T) {
	base := core.Config{BufferWidth: 2, Method: core.Exhaustive}
	k := StoreKey("fp", base)

	withWorkers := base
	withWorkers.Workers = 1
	if StoreKey("fp", withWorkers) != k {
		t.Error("Workers changed the store key; 0 and 1 select the same Result")
	}

	// Every field that does change the Result must change the key, and so
	// must the fingerprint.
	distinct := map[string]core.Config{}
	for name, cfg := range map[string]core.Config{
		"width":   {BufferWidth: 3, Method: core.Exhaustive},
		"method":  {BufferWidth: 2, Method: core.Knapsack},
		"nopack":  {BufferWidth: 2, DisablePacking: true},
		"maxcand": {BufferWidth: 2, MaxCandidates: 9},
		"keep":    {BufferWidth: 2, KeepCandidates: true},
	} {
		distinct[name] = cfg
		if StoreKey("fp", cfg) == k {
			t.Errorf("%s variant collided with the base key", name)
		}
	}
	if StoreKey("other-fp", base) == k {
		t.Error("fingerprint does not reach the key")
	}
}

func TestResultStoreCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewResultStore(reg, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	res := storedResult()

	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put("a", res)
	s.Put("b", res)
	if got, ok := s.Get("a"); !ok || got != res {
		t.Fatal("stored result not returned by reference")
	}
	// "a" is now most-recent; inserting "c" must evict "b".
	s.Put("c", res)
	if _, ok := s.Get("b"); ok {
		t.Error("evicted key still answered")
	}
	if _, ok := s.Get("a"); !ok {
		t.Error("recently-used key was evicted instead of the LRU one")
	}
	snap := reg.Snapshot()
	if snap["pipeline.store.hits"] != 2 || snap["pipeline.store.misses"] != 2 || snap["pipeline.store.evictions"] != 1 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 2/2/1",
			snap["pipeline.store.hits"], snap["pipeline.store.misses"], snap["pipeline.store.evictions"])
	}
	if snap["pipeline.store.size"] != 2 {
		t.Errorf("pipeline.store.size = %d, want 2", snap["pipeline.store.size"])
	}
	// Duplicate Put keeps the first stored Result.
	other := storedResult()
	s.Put("a", other)
	if got, _ := s.Get("a"); got != res {
		t.Error("duplicate Put replaced the first stored Result")
	}
}

func TestNewResultStoreRejectsDir(t *testing.T) {
	if _, err := NewResultStore(nil, 0, "results"); err == nil || !strings.Contains(err.Error(), "memory-only") {
		t.Errorf("NewResultStore with a dir: err = %v, want a memory-only error", err)
	}
}

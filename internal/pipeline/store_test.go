package pipeline

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tracescale/internal/core"
	"tracescale/internal/obs"
)

// storedResult builds a small but fully-populated Result so round trips
// exercise every field class (slices, nested structs, floats).
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

func TestResultStoreDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := NewResultStore(reg, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	res := storedResult()
	s.Put("k1", res)
	if reg.Snapshot()["pipeline.store.spill_writes"] != 1 {
		t.Fatal("Put with a dir did not spill")
	}

	// A second store over the same directory — a restarted process — must
	// answer from disk, byte-identically.
	reg2 := obs.NewRegistry()
	s2, err := NewResultStore(reg2, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("k1")
	if !ok {
		t.Fatal("restarted store missed the spilled key")
	}
	want, _ := json.Marshal(res)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Errorf("disk round trip changed the result:\n got %s\nwant %s", have, want)
	}
	snap := reg2.Snapshot()
	if snap["pipeline.store.disk_hits"] != 1 || snap["pipeline.store.hits"] != 0 {
		t.Errorf("disk_hits/hits = %d/%d, want 1/0", snap["pipeline.store.disk_hits"], snap["pipeline.store.hits"])
	}
	// The disk hit promoted the entry; the next Get is a memory hit.
	if _, ok := s2.Get("k1"); !ok {
		t.Fatal("promoted key missed")
	}
	if snap := reg2.Snapshot(); snap["pipeline.store.hits"] != 1 {
		t.Errorf("promotion did not land in memory (hits = %d)", snap["pipeline.store.hits"])
	}
	// Promotion must not rewrite the spill file.
	if reg2.Snapshot()["pipeline.store.spill_writes"] != 0 {
		t.Error("disk-hit promotion rewrote the spill file")
	}
}

func TestResultStoreCorruptSpillIsAMiss(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := NewResultStore(reg, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("bad"); ok {
		t.Fatal("corrupt spill file was served")
	}
	snap := reg.Snapshot()
	if snap["pipeline.store.disk_errors"] != 1 || snap["pipeline.store.misses"] != 1 {
		t.Errorf("disk_errors/misses = %d/%d, want 1/1", snap["pipeline.store.disk_errors"], snap["pipeline.store.misses"])
	}
}

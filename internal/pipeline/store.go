package pipeline

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/obs"
)

// StoreKey content-addresses one selection: a sha256 over the session's
// instance-set fingerprint and the normalized Config (Workers erased — it
// changes how the scan is split, never what it returns). Two processes
// that resolve structurally identical scenarios derive identical keys, so
// servers sharing a spill directory share results instead of recomputing
// them.
func StoreKey(fingerprint string, cfg core.Config) string {
	n := memoKey(cfg)
	h := sha256.New()
	fmt.Fprintf(h, "%s|bw=%d|m=%s|nopack=%t|maxc=%d|keep=%t",
		fingerprint, n.BufferWidth, n.Method, n.DisablePacking, n.MaxCandidates, n.KeepCandidates)
	return hex.EncodeToString(h.Sum(nil))
}

// ResultStore is a content-addressed cache of selection Results: an
// in-memory LRU bounded by capacity, optionally spilled to a directory as
// one JSON file per key so results survive process restarts and can be
// shared across servers. Results are stored and returned by reference and
// must be treated as read-only; a Result that round-trips through the disk
// spill is byte-identical to the original (core.Result is plain data and
// float64 JSON encoding is exact).
//
// Observability (nil registry is a no-op): pipeline.store.hits (memory),
// pipeline.store.disk_hits, pipeline.store.misses,
// pipeline.store.evictions, pipeline.store.spill_writes,
// pipeline.store.disk_errors, and the pipeline.store.size gauge.
type ResultStore struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = least recently used
	capacity int
	dir      string
	reg      *obs.Registry
}

type storeEntry struct {
	key string
	res *core.Result
}

// NewResultStore returns a store holding at most capacity results in
// memory (zero = unbounded) that records pipeline.store.* metrics into
// reg. A non-empty dir enables the disk spill: every Put also writes
// dir/<key>.json (created if missing), and a memory miss consults the
// directory before reporting a miss. Evictions drop only the memory copy;
// spilled files remain addressable.
func NewResultStore(reg *obs.Registry, capacity int, dir string) (*ResultStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("pipeline: result store dir: %w", err)
		}
	}
	return &ResultStore{
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		capacity: capacity,
		dir:      dir,
		reg:      reg,
	}, nil
}

// Get returns the stored Result for the key, consulting memory first and
// then the spill directory. A disk hit is promoted back into memory (and
// counted as pipeline.store.disk_hits, not hits).
func (s *ResultStore) Get(key string) (*core.Result, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToBack(el)
		s.mu.Unlock()
		s.reg.Counter("pipeline.store.hits").Inc()
		return el.Value.(*storeEntry).res, true
	}
	s.mu.Unlock()
	if s.dir != "" {
		if res, ok := s.load(key); ok {
			s.reg.Counter("pipeline.store.disk_hits").Inc()
			s.put(key, res, false)
			return res, true
		}
	}
	s.reg.Counter("pipeline.store.misses").Inc()
	return nil, false
}

// Put stores the Result under the key. The first stored Result for a key
// wins (results for one key are byte-identical by construction, so callers
// racing on a Put share whichever landed first), and the spill file is
// written outside the lock, atomically via a temp-file rename so a
// concurrent reader — this process or another server sharing the
// directory — never observes a torn file.
func (s *ResultStore) Put(key string, res *core.Result) {
	if s == nil {
		return
	}
	s.put(key, res, s.dir != "")
}

func (s *ResultStore) put(key string, res *core.Result, spill bool) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToBack(el)
		s.mu.Unlock()
		return
	}
	s.entries[key] = s.order.PushBack(&storeEntry{key: key, res: res})
	if s.capacity > 0 && s.order.Len() > s.capacity {
		lru := s.order.Front()
		s.order.Remove(lru)
		delete(s.entries, lru.Value.(*storeEntry).key)
		s.reg.Counter("pipeline.store.evictions").Inc()
	}
	size := s.order.Len()
	s.mu.Unlock()
	s.reg.Gauge("pipeline.store.size").Set(int64(size))
	if spill {
		s.spill(key, res)
	}
}

// Len returns the number of results held in memory.
func (s *ResultStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

func (s *ResultStore) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

func (s *ResultStore) load(key string) (*core.Result, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			s.reg.Counter("pipeline.store.disk_errors").Inc()
		}
		return nil, false
	}
	var res core.Result
	if err := json.Unmarshal(data, &res); err != nil {
		s.reg.Counter("pipeline.store.disk_errors").Inc()
		return nil, false
	}
	return &res, true
}

func (s *ResultStore) spill(key string, res *core.Result) {
	data, err := json.Marshal(res)
	if err != nil {
		s.reg.Counter("pipeline.store.disk_errors").Inc()
		return
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		s.reg.Counter("pipeline.store.disk_errors").Inc()
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.reg.Counter("pipeline.store.disk_errors").Inc()
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		s.reg.Counter("pipeline.store.disk_errors").Inc()
		return
	}
	s.reg.Counter("pipeline.store.spill_writes").Inc()
}

// FingerprintOf exposes the session layer's instance-set fingerprint (with
// its pipeline.fingerprint* accounting) so callers can derive StoreKeys
// without resolving a Session first — the lookup that lets a store hit
// skip the interleave build entirely.
func FingerprintOf(instances []flow.Instance, reg *obs.Registry) string {
	return fingerprint(instances, reg)
}

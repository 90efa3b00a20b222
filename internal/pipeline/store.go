package pipeline

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/obs"
)

// StoreKey content-addresses one selection: a sha256 over the session's
// instance-set fingerprint and the normalized Config (Workers erased — its
// valid values 0 and 1 select the same Result). Structurally identical
// scenarios resolved by different requests derive identical keys, so a
// repeated selection is answered from the store instead of recomputed.
func StoreKey(fingerprint string, cfg core.Config) string {
	n := memoKey(cfg)
	h := sha256.New()
	fmt.Fprintf(h, "%s|bw=%d|m=%s|nopack=%t|maxc=%d|keep=%t",
		fingerprint, n.BufferWidth, n.Method, n.DisablePacking, n.MaxCandidates, n.KeepCandidates)
	return hex.EncodeToString(h.Sum(nil))
}

// ResultStore is a content-addressed cache of selection Results: an
// in-memory LRU bounded by capacity. Results are stored and returned by
// reference and must be treated as read-only.
//
// Observability (nil registry is a no-op): pipeline.store.hits,
// pipeline.store.misses, pipeline.store.evictions and the
// pipeline.store.size gauge.
type ResultStore struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = least recently used
	capacity int
	reg      *obs.Registry
}

type storeEntry struct {
	key string
	res *core.Result
}

// NewResultStore returns a store holding at most capacity results (zero =
// unbounded) that records pipeline.store.* metrics into reg. The store is
// memory-only, so dir must be empty: a non-empty dir is an error.
func NewResultStore(reg *obs.Registry, capacity int, dir string) (*ResultStore, error) {
	if dir != "" {
		return nil, fmt.Errorf("pipeline: result store dir %q: the store is memory-only", dir)
	}
	return &ResultStore{
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		capacity: capacity,
		reg:      reg,
	}, nil
}

// Get returns the stored Result for the key.
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
	s.reg.Counter("pipeline.store.misses").Inc()
	return nil, false
}

// Put stores the Result under the key. The first stored Result for a key
// wins: results for one key are byte-identical by construction, so
// callers racing on a Put share whichever landed first.
func (s *ResultStore) Put(key string, res *core.Result) {
	if s == nil {
		return
	}
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
}

// Len returns the number of results held.
func (s *ResultStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// FingerprintOf exposes the session layer's instance-set fingerprint (with
// its pipeline.fingerprint* accounting) so callers can derive StoreKeys
// without resolving a Session first — the lookup that lets a store hit
// skip the interleave build entirely.
func FingerprintOf(instances []flow.Instance, reg *obs.Registry) string {
	return fingerprint(instances, reg)
}

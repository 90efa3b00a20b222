// Package pipeline unifies the selection pipeline behind a shared, cached
// Session layer. A Session owns one scenario's analysis — the Evaluator of
// its instance set, computed in closed form without interleaving it, and
// the interleaved Product, built lazily on first use for reconstruction
// and the other consumers that walk it — and memoizes selection Results
// per normalized Config (Workers 0 and 1 share one key: both select the
// same Result), so that width sweeps, candidate dumps, ablation curves,
// CLI invocations, the serving layer, and the public facade all reuse one
// analysis instead of recomputing it per data point. A selection runs on
// its caller's goroutine under the caller's context. Sessions are
// themselves memoized in a Cache keyed by a content fingerprint of the
// instance listing (flow structure and indices, in listing order, which
// the evaluator's message universe and tie-breaks follow), so
// independently built but structurally identical scenarios share the same
// Session.
//
// The layer is observable: a Cache built with NewCacheObs records
// pipeline.cache.* (hits, misses, evictions, size), pipeline.fingerprint_ns,
// and pipeline.results.* into its registry, and threads the registry into
// the evaluator, the lazy interleave build, and the core selectors so one
// snapshot covers the whole analysis chain. A nil registry is a no-op (the
// obs contract).
package pipeline

import (
	"container/list"
	"context"
	"sync"
	"time"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/reconstruct"
)

// Session is one scenario's analyzed selection pipeline: the Evaluator of
// its instance set, the interleaved Product (built on first use), and a
// memo of selection Results per Config. A Session is safe for concurrent
// use; Results it returns are shared between callers and must be treated
// as read-only.
type Session struct {
	fp  string
	e   *core.Evaluator
	obs *obs.Registry

	mu      sync.Mutex
	results map[core.Config]*core.Result
	recons  map[reconKey]*reconstruct.Result
}

// NewSession analyzes the instance set: it computes the Evaluator in closed
// form (core.Analyze), leaving the interleaved product unbuilt until
// something asks for it. The Session is not registered in any Cache; use
// Cache.Session (or the package-level For) for memoized construction.
func NewSession(instances []flow.Instance) (*Session, error) {
	return NewSessionObs(instances, nil)
}

// NewSessionObs is NewSession with an observability registry: the
// fingerprint, the evaluator, the lazy interleave build, and every Select
// the session runs record into reg. A nil registry makes it identical to
// NewSession.
func NewSessionObs(instances []flow.Instance, reg *obs.Registry) (*Session, error) {
	fp := fingerprint(instances, reg)
	return newSession(fp, instances, reg)
}

// fingerprint computes the instance-set fingerprint, recording the hash
// time (the cache-key cost the session layer pays per lookup).
func fingerprint(instances []flow.Instance, reg *obs.Registry) string {
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	fp := interleave.Fingerprint(instances)
	if reg != nil {
		reg.Counter("pipeline.fingerprints").Inc()
		reg.Add("pipeline.fingerprint_ns", time.Since(start).Nanoseconds())
	}
	return fp
}

func newSession(fp string, instances []flow.Instance, reg *obs.Registry) (*Session, error) {
	e, err := core.Analyze(instances, reg)
	if err != nil {
		return nil, err
	}
	reg.Counter("pipeline.session.builds").Inc()
	return &Session{
		fp:      fp,
		e:       e,
		obs:     reg,
		results: make(map[core.Config]*core.Result),
		recons:  make(map[reconKey]*reconstruct.Result),
	}, nil
}

// Fingerprint returns the content fingerprint of the session's instance
// set — the key it is cached under.
func (s *Session) Fingerprint() string { return s.fp }

// Product returns the session's interleaved flow, building it on first
// use; concurrent first callers share one build (core.Evaluator.Product).
// Selection never needs it.
func (s *Session) Product() *interleave.Product { return s.e.Product() }

// Evaluator returns the session's precomputed evaluator.
func (s *Session) Evaluator() *core.Evaluator { return s.e }

// memoKey normalizes cfg into the memo key. Workers is zeroed: 0 and 1 are
// its only valid values and both select the same Result, so they share
// one memo slot instead of recomputing it.
func memoKey(cfg core.Config) core.Config {
	cfg.Workers = 0
	return cfg
}

// Select runs the selection pipeline with the given configuration,
// memoizing the Result: repeated selections at the same Config (the same
// buffer width, method, packing and candidate options — Workers is
// normalized away) return the cached Result. The returned Result is
// shared — callers must not modify it.
func (s *Session) Select(cfg core.Config) (*core.Result, error) {
	return s.SelectContext(context.Background(), cfg)
}

// SelectContext is Select under the caller's context: the selection runs
// on the caller's goroutine, so cancelling ctx aborts its scan and returns
// ctx's error. Errors are not memoized — a cancelled or timed-out
// selection leaves nothing behind. Concurrent callers that miss the memo
// each compute; the first Result stored is the one every later caller
// shares.
func (s *Session) SelectContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	// Validate before the memo lookup: the key normalizes Workers away, so
	// without this check a Workers count no method can honor would be
	// answered from a cache entry computed at Workers 0 — silently masking
	// the invalid combination instead of rejecting it.
	if err := core.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	key := memoKey(cfg)
	s.mu.Lock()
	res, ok := s.results[key]
	s.mu.Unlock()
	if ok {
		s.obs.Counter("pipeline.results.hits").Inc()
		return res, nil
	}
	s.obs.Counter("pipeline.results.misses").Inc()
	res, err := core.SelectContext(ctx, s.e, cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.results[key]; ok {
		return prior, nil // keep the first stored Result so callers share one
	}
	s.results[key] = res
	return res, nil
}

// Cache memoizes Sessions by instance-set fingerprint. A Cache built with
// a capacity evicts the least-recently-used session once full; capacity
// zero means unbounded (the Default cache's mode).
type Cache struct {
	mu       sync.Mutex
	sessions map[string]*list.Element
	order    *list.List // front = least recently used
	capacity int
	obs      *obs.Registry
}

type cacheEntry struct {
	fp string
	s  *Session
}

// NewCacheObs returns an empty session cache that records
// pipeline.cache.* metrics into reg and holds at most capacity sessions
// (zero = unbounded), evicting least-recently-used sessions past that.
func NewCacheObs(reg *obs.Registry, capacity int) *Cache {
	return &Cache{
		sessions: make(map[string]*list.Element),
		order:    list.New(),
		capacity: capacity,
		obs:      reg,
	}
}

// Session returns the cached Session for the instance set, analyzing it on
// first use. The analysis runs outside the cache lock, so it never holds up
// callers of other scenarios. Callers that miss on the same scenario at
// once each analyze it, and all of them get the first Session stored: the
// rule Session.SelectContext and Session.Reconstruct follow for their
// memos. An instance set over interleave.MaxStates is refused before
// anything proportional to its product is allocated.
func (c *Cache) Session(instances []flow.Instance) (*Session, error) {
	fp := fingerprint(instances, c.obs)
	c.mu.Lock()
	s := c.lookup(fp)
	if s != nil {
		c.obs.Counter("pipeline.cache.hits").Inc()
	}
	c.mu.Unlock()
	if s != nil {
		return s, nil
	}
	s, err := newSession(fp, instances, c.obs)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs.Counter("pipeline.cache.misses").Inc()
	if prior := c.lookup(fp); prior != nil {
		return prior, nil // keep the first stored Session so callers share one
	}
	c.sessions[fp] = c.order.PushBack(&cacheEntry{fp: fp, s: s})
	if c.capacity > 0 && c.order.Len() > c.capacity {
		lru := c.order.Front()
		c.order.Remove(lru)
		delete(c.sessions, lru.Value.(*cacheEntry).fp)
		c.obs.Counter("pipeline.cache.evictions").Inc()
	}
	c.obs.Gauge("pipeline.cache.size").Set(int64(c.order.Len()))
	return s, nil
}

// lookup returns the cached Session for fp and marks it most recently
// used, or returns nil. The caller holds c.mu.
func (c *Cache) lookup(fp string) *Session {
	el, ok := c.sessions[fp]
	if !ok {
		return nil
	}
	c.order.MoveToBack(el)
	return el.Value.(*cacheEntry).s
}

// Len returns the number of cached sessions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// Default is the process-wide session cache the experiment harness, CLI
// tools, and public facade share. It records into obs.Default, which the
// CLI tools snapshot via -metrics-json.
var Default = NewCacheObs(obs.Default, 0)

// For returns the Default-cached Session for the instance set.
func For(instances []flow.Instance) (*Session, error) {
	return Default.Session(instances)
}

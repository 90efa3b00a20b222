// Package pipeline unifies the selection pipeline behind a shared, cached
// Session layer. A Session owns one scenario's analysis — the Evaluator of
// its instance set, computed in closed form without interleaving it, and
// the interleaved Product, built lazily on first use for reconstruction
// and the other consumers that walk it — and memoizes selection Results
// per normalized Config (Workers is erased from the key: every worker
// count selects a byte-identical Result), so that width sweeps, candidate
// dumps, ablation curves, CLI invocations, the serving layer, and the
// public facade all reuse one analysis instead of recomputing it per data
// point. Concurrent identical selections are singleflighted: they share
// one in-progress computation, and cancelling every interested caller
// cancels the computation itself. Sessions are themselves memoized in a
// Cache keyed by a content fingerprint of the instance listing (flow
// structure and indices, in listing order, which the evaluator's message
// universe and tie-breaks follow), so independently built but
// structurally identical scenarios share the same Session.
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
	flights map[core.Config]*flight
	recons  map[reconKey]*reconstruct.Result
}

// flight is one in-progress selection shared by every concurrent caller
// with the same normalized Config (singleflight). The computation runs on
// its own goroutine under its own context; waiters that are cancelled
// leave without stopping it, and the last waiter to leave cancels the
// computation so no shard pool keeps burning for a request nobody wants.
type flight struct {
	done    chan struct{} // closed once res/err are set
	res     *core.Result
	err     error
	waiters int // guarded by Session.mu
	cancel  context.CancelFunc
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
		flights: make(map[core.Config]*flight),
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

// memoKey normalizes cfg into the memo and singleflight key. Workers is
// zeroed: every worker count selects a byte-identical Result (the
// parallel-equals-serial property the repo pins), so configs differing
// only in Workers must share one memo slot instead of recomputing an
// identical Result per worker count.
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

// SelectContext is Select with cancellation and singleflight: concurrent
// callers with the same normalized Config share one computation instead of
// duplicating it. The computation runs on its own goroutine, so a caller
// whose ctx is cancelled returns promptly with ctx's error while remaining
// waiters keep the flight alive; the last waiter to leave cancels the
// underlying core.SelectContext, aborting its shard pool. Errors are not
// memoized — a timed-out flight leaves no poison behind.
func (s *Session) SelectContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	// Validate before the memo lookup: the key normalizes Workers away, so
	// without this check a Config whose Workers count the method cannot
	// honor would be answered from a cache entry computed at Workers 0 —
	// silently masking the invalid combination instead of rejecting it.
	if err := core.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	key := memoKey(cfg)
	s.mu.Lock()
	if res, ok := s.results[key]; ok {
		s.mu.Unlock()
		s.obs.Counter("pipeline.results.hits").Inc()
		return res, nil
	}
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.mu.Unlock()
		s.obs.Counter("pipeline.results.shared").Inc()
		return s.waitFlight(ctx, key, f)
	}
	// The flight must outlive any single waiter's ctx: it is shared by every
	// concurrent caller, and waitFlight cancels it only when the last waiter
	// leaves. Deriving it from this caller's ctx would cancel everyone's
	// computation when the first caller times out.
	//lint:ignore ctxflow singleflight computation detaches deliberately; the last departing waiter cancels it
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.flights[key] = f
	s.mu.Unlock()
	s.obs.Counter("pipeline.results.misses").Inc()
	go s.runFlight(fctx, key, cfg, f)
	return s.waitFlight(ctx, key, f)
}

// runFlight computes one selection and publishes it to every waiter,
// memoizing successes. It owns removing the flight from the map (unless
// the last waiter already abandoned it) and always releases fctx.
func (s *Session) runFlight(fctx context.Context, key core.Config, cfg core.Config, f *flight) {
	res, err := core.SelectContext(fctx, s.e, cfg)
	s.mu.Lock()
	if err == nil {
		if prior, ok := s.results[key]; ok {
			res = prior // keep the first stored Result so callers share one
		} else {
			s.results[key] = res
		}
	}
	if s.flights[key] == f {
		delete(s.flights, key)
	}
	f.res, f.err = res, err
	s.mu.Unlock()
	f.cancel() // computation finished; release the flight context
	close(f.done)
}

// waitFlight blocks until the flight completes or ctx is cancelled. The
// context strictly wins: even when the flight finished in the same instant
// (a starved waiter can wake to find both ready), an expired caller gets
// ctx's error, never a result its deadline already disowned. A cancelled
// waiter deregisters itself; the last one out cancels the computation and
// retires the flight so the next caller starts fresh.
func (s *Session) waitFlight(ctx context.Context, key core.Config, f *flight) (*core.Result, error) {
	select {
	case <-f.done:
		if ctx.Err() == nil {
			return f.res, f.err
		}
	case <-ctx.Done():
	}
	s.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && s.flights[key] == f {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	if last {
		f.cancel() // idempotent; a no-op when the flight already finished
		s.obs.Counter("pipeline.results.flights_cancelled").Inc()
	}
	return nil, ctx.Err()
}

// Cache memoizes Sessions by instance-set fingerprint. A Cache built with
// a capacity evicts the least-recently-used session once full; capacity
// zero means unbounded (the Default cache's mode).
type Cache struct {
	mu        sync.Mutex
	sessions  map[string]*list.Element
	order     *list.List // front = least recently used
	capacity  int
	obs       *obs.Registry
	hits      int
	misses    int
	evictions int
}

type cacheEntry struct {
	fp string
	s  *Session
}

// NewCache returns an empty, unbounded, unobserved session cache.
func NewCache() *Cache { return NewCacheObs(nil, 0) }

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
// first use. Construction holds the cache lock so concurrent requests for
// the same scenario analyze it exactly once; the analysis is the
// closed-form evaluator, so the lock is never held across a product
// build. An instance set over interleave.MaxStates is refused before
// anything proportional to its product is allocated.
func (c *Cache) Session(instances []flow.Instance) (*Session, error) {
	fp := fingerprint(instances, c.obs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.sessions[fp]; ok {
		c.hits++
		c.obs.Counter("pipeline.cache.hits").Inc()
		c.order.MoveToBack(el)
		return el.Value.(*cacheEntry).s, nil
	}
	s, err := newSession(fp, instances, c.obs)
	if err != nil {
		return nil, err
	}
	c.misses++
	c.obs.Counter("pipeline.cache.misses").Inc()
	c.sessions[fp] = c.order.PushBack(&cacheEntry{fp: fp, s: s})
	if c.capacity > 0 && c.order.Len() > c.capacity {
		lru := c.order.Front()
		c.order.Remove(lru)
		delete(c.sessions, lru.Value.(*cacheEntry).fp)
		c.evictions++
		c.obs.Counter("pipeline.cache.evictions").Inc()
	}
	c.obs.Gauge("pipeline.cache.size").Set(int64(c.order.Len()))
	return s, nil
}

// Stats returns the cache's lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many sessions the cache has evicted to stay
// within its capacity (always zero for unbounded caches).
func (c *Cache) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
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

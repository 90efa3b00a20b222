// Package obs is the observability layer of the tracescale stack: a
// dependency-free metrics registry of atomic counters, gauges and
// fixed-bucket histograms. The paper's whole premise is observability
// under a budget — §3 selects the messages that maximize what a debugger
// can see — and obs applies the same discipline to our own pipeline: the
// SoC simulator, the interleaved-product builder, the selectors, and the
// session cache all report what they did through a Registry, so benchmark
// trajectories and regressions (cache-miss storms, evictions, campaign
// timeouts) are measurable instead of invisible.
//
// # Nil-safe contract
//
// Every method on a nil *Registry, nil *Counter, nil *Gauge and nil
// *Histogram is a no-op (lookups on a nil Registry return nil metrics).
// Library code therefore threads a possibly-nil registry unconditionally
// and never branches on it; call sites that opt out pay only a nil check
// per aggregated record, never per inner-loop iteration.
// Instrumented layers must keep hot loops metric-free: accumulate locally,
// record once per phase.
//
// # Naming
//
// Metric names are dot-separated, lowercase, rooted at the owning layer:
// soc.*, interleave.*, core.select.*, core.pack.*, pipeline.cache.*.
// Histograms expand in snapshots to <name>.count, <name>.sum, and
// cumulative <name>.le_<bound> buckets (plus <name>.le_inf).
//
// # Reproducibility
//
// Wall time appears only in metrics suffixed _ns or _us, so every other
// metric of a deterministic workload reads the same on every run.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add adds d to the counter. No-op on a nil Counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc adds one to the counter. No-op on a nil Counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-written value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil Gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Max raises the gauge to v if v exceeds the current value. No-op on a
// nil Gauge.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (zero for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper bounds in ascending order; an implicit +inf bucket catches the
// rest. All methods are safe for concurrent use.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is +inf
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. No-op on a nil Histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (zero for a nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (zero for a nil Histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a named collection of metrics. Metrics are created lazily
// on first lookup and live for the registry's lifetime. A nil *Registry
// is a valid no-op sink.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the CLI tools snapshot via
// -metrics-json and the default pipeline cache, experiment harness, and
// regression suite record into. Library users constructing their own
// caches and simulator configs choose their own registry (or nil).
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. A nil
// Registry returns a nil (no-op) Counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil Registry
// returns a nil (no-op) Gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later lookups reuse the existing histogram
// regardless of bounds, so one metric name always has one bucket layout.
// A nil Registry returns a nil (no-op) Histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Add adds d to the named counter (no-op on a nil Registry).
func (r *Registry) Add(name string, d int64) { r.Counter(name).Add(d) }

// Snapshot flattens every metric into a name -> value map: counters and
// gauges map directly; a histogram h expands to h.count, h.sum, and
// cumulative h.le_<bound> buckets ending in h.le_inf. A nil Registry
// returns nil.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+4*len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = h.count.Load()
		out[name+".sum"] = h.sum.Load()
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			out[fmt.Sprintf("%s.le_%d", name, b)] = cum
		}
		out[name+".le_inf"] = cum + h.buckets[len(h.bounds)].Load()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with sorted keys —
// the -metrics-json payload. A nil Registry writes an empty object.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = map[string]int64{}
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// WriteFile writes the snapshot as JSON to a file — the CLI tools'
// -metrics-json sink.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

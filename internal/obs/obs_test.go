package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("counter lookup is not stable")
	}

	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
	g.Max(10)
	g.Max(2)
	if got := g.Value(); got != 10 {
		t.Errorf("gauge after Max = %d, want 10", got)
	}

	h := r.Histogram("a.hist", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1022 {
		t.Errorf("histogram count/sum = %d/%d, want 4/1022", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	for name, want := range map[string]int64{
		"a.count":       5,
		"a.gauge":       10,
		"a.hist.count":  4,
		"a.hist.sum":    1022,
		"a.hist.le_10":  2, // 1 and 10 (inclusive upper bound)
		"a.hist.le_100": 3, // cumulative: + 11
		"a.hist.le_inf": 4,
	} {
		if snap[name] != want {
			t.Errorf("snapshot[%q] = %d, want %d", name, snap[name], want)
		}
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	// Every call on the nil registry and its nil metrics must be safe.
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Gauge("x").Max(2)
	r.Histogram("x", []int64{1}).Observe(9)
	r.Add("x", 1)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 {
		t.Error("nil metrics should read zero")
	}
	if r.Histogram("x", nil).Count() != 0 || r.Histogram("x", nil).Sum() != 0 {
		t.Error("nil histogram should read zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Errorf("nil registry WriteJSON = %q, want {}", buf.String())
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Add("soc.cycles", 123)
	r.Gauge("core.select.workers").Set(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if got["soc.cycles"] != 123 || got["core.select.workers"] != 4 {
		t.Errorf("round-tripped snapshot = %v", got)
	}
}

// TestRegistryConcurrency hammers counters, gauges, and histograms from
// GOMAXPROCS goroutines and asserts the final snapshot equals the sum of
// the per-goroutine contributions. Run under -race in CI.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer.count")
			h := r.Histogram("hammer.hist", []int64{256, 4096})
			g := r.Gauge("hammer.max")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Add("hammer.sum", int64(i))
				h.Observe(int64(i))
				g.Max(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	n := int64(workers) * perWorker
	if snap["hammer.count"] != n {
		t.Errorf("hammer.count = %d, want %d", snap["hammer.count"], n)
	}
	// Each goroutine contributes 0+1+...+perWorker-1.
	wantSum := int64(workers) * (perWorker * (perWorker - 1) / 2)
	if snap["hammer.sum"] != wantSum {
		t.Errorf("hammer.sum = %d, want %d", snap["hammer.sum"], wantSum)
	}
	if snap["hammer.hist.count"] != n || snap["hammer.hist.sum"] != wantSum {
		t.Errorf("hist count/sum = %d/%d, want %d/%d",
			snap["hammer.hist.count"], snap["hammer.hist.sum"], n, wantSum)
	}
	// Cumulative buckets: 0..256 inclusive per goroutine, then 0..4096.
	if got, want := snap["hammer.hist.le_256"], int64(workers)*257; got != want {
		t.Errorf("le_256 = %d, want %d", got, want)
	}
	if got, want := snap["hammer.hist.le_4096"], int64(workers)*4097; got != want {
		t.Errorf("le_4096 = %d, want %d", got, want)
	}
	if snap["hammer.hist.le_inf"] != n {
		t.Errorf("le_inf = %d, want %d", snap["hammer.hist.le_inf"], n)
	}
	if got, want := snap["hammer.max"], int64(workers*perWorker-1); got != want {
		t.Errorf("hammer.max = %d, want %d", got, want)
	}
}

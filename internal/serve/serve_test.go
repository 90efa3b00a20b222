package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/pipeline"
	"tracescale/internal/spec"
	"tracescale/internal/synth"
)

// toyBody returns the Fig. 2 toy cache-coherence scenario as a request
// body, with extra top-level fields (method, width, ...) merged in.
func toyBody(t testing.TB, extra map[string]any) []byte {
	t.Helper()
	f := flow.CacheCoherence()
	s := spec.FromFlows("toy-cache-coherence", []*flow.Flow{f},
		[]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}}, 2)
	return merge(t, s, extra)
}

// slowBody returns a scenario whose exhaustive scan covers 2^messages
// masks — long enough for cancellation and backpressure to land mid-scan.
func slowBody(t testing.TB, messages int, extra map[string]any) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	f, err := synth.Flow("slow", synth.Params{States: messages + 1, MaxWidth: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.FromFlows("slow", []*flow.Flow{f}, []flow.Instance{{Flow: f, Index: 1}}, 24)
	return merge(t, s, extra)
}

func merge(t testing.TB, s *spec.Scenario, extra map[string]any) []byte {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) == 0 {
		return raw
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for k, v := range extra {
		m[k] = v
	}
	raw, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func post(t testing.TB, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/select", bytes.NewReader(body)))
	return rec
}

func TestSelectToyScenario(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	rec := post(t, h, toyBody(t, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Selected) != 2 || resp.Selected[0] != "ReqE" || resp.Selected[1] != "GntE" {
		t.Errorf("selected = %v, want [ReqE GntE] (the paper's Fig. 2 answer)", resp.Selected)
	}
	if resp.Method != "exhaustive" || resp.BufferWidth != 2 {
		t.Errorf("method=%q bufferWidth=%d, want exhaustive/2", resp.Method, resp.BufferWidth)
	}
	if resp.Utilization != 1.0 {
		t.Errorf("utilization = %v, want 1.0 (ReqE+GntE fill the 2-bit buffer)", resp.Utilization)
	}
	snap := reg.Snapshot()
	if snap["serve.ok"] != 1 || snap["serve.requests"] != 1 {
		t.Errorf("serve.ok=%d serve.requests=%d, want 1/1", snap["serve.ok"], snap["serve.requests"])
	}

	// A repeated POST of the same scenario hits the content-addressed
	// result store before the session layer is even consulted.
	rec2 := post(t, h, toyBody(t, nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("repeat status = %d", rec2.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Error("store-answered repeat response differs from the computed one")
	}
	snap = reg.Snapshot()
	if snap["pipeline.store.hits"] != 1 {
		t.Errorf("pipeline.store.hits = %d, want 1", snap["pipeline.store.hits"])
	}
	if snap["core.select.runs"] != 1 {
		t.Errorf("core.select.runs = %d, want 1 (the repeat must not rescan)", snap["core.select.runs"])
	}
}

func TestSelectMethodAndWidthOptions(t *testing.T) {
	h := NewHandler(Config{})
	rec := post(t, h, toyBody(t, map[string]any{"method": "knapsack", "width": 3, "noPack": true}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Method != "knapsack" || resp.BufferWidth != 3 {
		t.Errorf("method=%q bufferWidth=%d, want knapsack/3", resp.Method, resp.BufferWidth)
	}
	if len(resp.Packed) != 0 {
		t.Errorf("noPack request returned packed groups: %v", resp.Packed)
	}
}

func TestRequestErrors(t *testing.T) {
	cases := []struct {
		name   string
		method string
		body   []byte
		want   int
	}{
		{"malformed json", http.MethodPost, []byte("{"), http.StatusBadRequest},
		{"unknown field", http.MethodPost, toyBody(t, map[string]any{"bogus": 1}), http.StatusBadRequest},
		{"no flows", http.MethodPost, []byte(`{"flows":[],"instances":[],"bufferWidth":2}`), http.StatusBadRequest},
		{"bad method name", http.MethodPost, toyBody(t, map[string]any{"method": "quantum"}), http.StatusBadRequest},
		{"unknown flow ref", http.MethodPost, []byte(`{"flows":[{"name":"a","states":["s","t"],"init":["s"],"stop":["t"],"messages":[{"name":"m","width":1}],"edges":[{"from":"s","to":"t","msg":"m"}]}],"instances":[{"flow":"ghost","index":1}],"bufferWidth":2}`), http.StatusBadRequest},
		{"negative maxCandidates", http.MethodPost, toyBody(t, map[string]any{"maxCandidates": -1}), http.StatusUnprocessableEntity},
		{"get not allowed", http.MethodGet, nil, http.StatusMethodNotAllowed},
	}
	h := NewHandler(Config{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, "/select", bytes.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Errorf("error body %q is not {\"error\": ...}", rec.Body)
			}
		})
	}
}

func TestBodyCapReturns413(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg, MaxBodyBytes: 64})
	rec := post(t, h, toyBody(t, nil)) // the toy spec is well past 64 bytes
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if got := reg.Snapshot()["serve.status_413"]; got != 1 {
		t.Errorf("serve.status_413 = %d, want 1", got)
	}
}

// Saturating MaxInFlight must shed load with 429 + Retry-After instead of
// queueing: hold the only slot with a slow scan, then POST again.
func TestOverloadReturns429(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg, MaxInFlight: 1})
	slow := slowBody(t, 20, nil)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, h, slow) }()
	// Wait until the slow request owns the slot.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot()["serve.inflight"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never took the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	rec := post(t, h, toyBody(t, nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}
	if first := <-done; first.Code != http.StatusOK {
		t.Errorf("slow request finished %d, want 200", first.Code)
	}
	if got := reg.Snapshot()["serve.status_429"]; got != 1 {
		t.Errorf("serve.status_429 = %d, want 1", got)
	}
}

// The acceptance bar: 100 concurrent POSTs against a small in-flight
// budget must each resolve 200 or 429 — never hang, never another status.
func TestHundredConcurrentPostsSucceedOr429(t *testing.T) {
	h := NewHandler(Config{MaxInFlight: 4})
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := toyBody(t, nil)

	var wg sync.WaitGroup
	codes := make([]int, 100)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/select", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, c)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded")
	}
	t.Logf("200s: %d, 429s: %d", ok, shed)
}

// A server-side timeout shorter than the scan maps to 504, and the abort
// is visible in the core counters. The selection is a 2^30-mask
// exhaustive scan (maxCandidates lifts the default guard) that needs
// seconds on any machine, so the 5ms deadline always fires first and
// cancellation is the scan's only exit — the timeout path is exercised in
// every interleaving instead of racing a short scan against the deadline.
func TestTimeoutReturns504(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg, RequestTimeout: 5 * time.Millisecond})
	rec := post(t, h, slowBody(t, 30, map[string]any{"maxCandidates": 1 << 30}))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	// The flight had a single waiter, so the 504 means the waiter left and
	// cancelled the flight; the scan then aborts at its next poll with the
	// flight context's error and the abort lands in core.select.cancelled.
	// The poll is bounded but guaranteed to terminate — cancellation is
	// the scan's only exit.
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot()["core.select.cancelled"] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("core.select.cancelled never rose: %v", reg.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// A client that disconnects mid-selection must cancel the shard scan
// (core.select.cancelled) and be counted as gone — the paper-pipeline
// workers are released, not left burning for an unreachable caller.
func TestClientCancelReleasesShardWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/select",
		bytes.NewReader(slowBody(t, 22, nil)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request finished %d before the cancel landed", resp.StatusCode)
		}
		errc <- err
	}()
	// Give the selection a moment to get in flight, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot()["serve.inflight"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never got in flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		if err != nil && strings.Contains(err.Error(), "before the cancel landed") {
			t.Skipf("scan outran the cancel: %v", err)
		}
		t.Fatalf("client error = %v, want context canceled", err)
	}
	for {
		snap := reg.Snapshot()
		if snap["serve.client_gone"] >= 1 && snap["core.select.cancelled"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never propagated to the scan: %v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg, Cache: pipeline.NewCacheObs(reg, 8)})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 \"ok\\n\"", rec.Code, rec.Body)
	}

	if rec := post(t, h, toyBody(t, nil)); rec.Code != http.StatusOK {
		t.Fatalf("select status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var snap map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics is not a JSON snapshot: %v", err)
	}
	if snap["serve.ok"] != 1 {
		t.Errorf("metrics serve.ok = %d, want 1", snap["serve.ok"])
	}
	if snap["pipeline.cache.misses"] != 1 {
		t.Errorf("metrics pipeline.cache.misses = %d, want 1 (shared registry covers the whole chain)", snap["pipeline.cache.misses"])
	}
}

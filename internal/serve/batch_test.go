package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/spec"
)

// postTo is post against an arbitrary path.
func postTo(t testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// batchBody renders the toy scenario with a batch of option sets.
func batchBody(t testing.TB, batch []map[string]any) []byte {
	t.Helper()
	f := flow.CacheCoherence()
	s := spec.FromFlows("toy-cache-coherence", []*flow.Flow{f},
		[]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}}, 2)
	return merge(t, s, map[string]any{"batch": batch})
}

// TestBatchDedupesDuplicateConfigs pins the batch economics: N duplicate
// option sets plus M distinct ones cost exactly M scans — a duplicate is
// answered by the store entry its first occurrence left, never a scan of
// its own.
func TestBatchDedupesDuplicateConfigs(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	batch := []map[string]any{
		{}, {}, {}, {}, {}, {}, // 6 duplicates of the default config
		{"method": "knapsack"},
		{"width": 3},
	}
	rec := postTo(t, h, "/select/batch", batchBody(t, batch))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(batch) {
		t.Fatalf("got %d results for %d items", len(resp.Results), len(batch))
	}
	first, err := json.Marshal(resp.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Results {
		if item.Result == nil || item.Error != "" {
			t.Fatalf("item %d failed: %q", i, item.Error)
		}
		if i < 6 {
			got, _ := json.Marshal(item)
			if !bytes.Equal(got, first) {
				t.Errorf("duplicate item %d diverged from item 0", i)
			}
		}
	}
	if resp.Results[6].Result.Method != "knapsack" {
		t.Errorf("item 6 method = %q, want knapsack", resp.Results[6].Result.Method)
	}
	snap := reg.Snapshot()
	if snap["core.select.runs"] != 3 {
		t.Errorf("core.select.runs = %d, want exactly 3 (6 dups + 2 distinct = 3 configs)", snap["core.select.runs"])
	}
	if snap["serve.batch.items"] != int64(len(batch)) {
		t.Errorf("serve.batch.items = %d, want %d", snap["serve.batch.items"], len(batch))
	}
}

// TestBatchErrorsAndLimits pins the batch failure surface: per-item errors
// ride inside a 200, while malformed batches are rejected whole.
func TestBatchErrorsAndLimits(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg, MaxBatch: 3})

	rec := postTo(t, h, "/select/batch", batchBody(t, []map[string]any{
		{}, {"method": "quantum"},
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Result == nil {
		t.Errorf("healthy item failed: %q", resp.Results[0].Error)
	}
	if !strings.Contains(resp.Results[1].Error, "unknown method") {
		t.Errorf("item error = %q, want the unknown-method rejection", resp.Results[1].Error)
	}
	if got := reg.Snapshot()["serve.batch.item_errors"]; got != 1 {
		t.Errorf("serve.batch.item_errors = %d, want 1", got)
	}

	if rec := postTo(t, h, "/select/batch", batchBody(t, []map[string]any{})); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", rec.Code)
	}
	if rec := postTo(t, h, "/select/batch", batchBody(t, []map[string]any{{}, {}, {}, {}})); rec.Code != http.StatusBadRequest {
		t.Errorf("oversize batch status = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/select/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status = %d, want 405", rec.Code)
	}
}

package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/spec"
)

// TestSelectOverMaxStatesReturns422: thirteen cache-coherence instances
// interleave into 8,503,056 states by the closed form, over
// interleave.MaxStates. The request is refused with the interleave
// package's own error before any product is built.
func TestSelectOverMaxStatesReturns422(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	f := flow.CacheCoherence()
	insts := make([]flow.Instance, 13)
	for i := range insts {
		insts[i] = flow.Instance{Flow: f, Index: i + 1}
	}
	rec := post(t, h, merge(t, spec.FromFlows("cc-x13", []*flow.Flow{f}, insts, 2), nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", rec.Code, rec.Body)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "interleave: product exceeds 4000000 states" {
		t.Errorf("error = %q, want the interleave MaxStates error", body.Error)
	}
	if n := reg.Snapshot()["interleave.builds"]; n != 0 {
		t.Errorf("interleave.builds = %d, want 0: admission must precede any build", n)
	}
}

// TestSelectionNeverBuildsProduct: /select and /select/batch are answered
// from the closed-form evaluator alone, so interleave.builds stays 0; the
// first /reconstruct builds the session's product, once.
func TestSelectionNeverBuildsProduct(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	for _, m := range []string{"exhaustive", "knapsack", "branch-bound", "greedy", "max-coverage"} {
		if rec := post(t, h, toyBody(t, map[string]any{"method": m})); rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d (body %s)", m, rec.Code, rec.Body)
		}
	}
	batch := []map[string]any{{"width": 1}, {"width": 3, "method": "knapsack"}, {"noPack": true}}
	if rec := postTo(t, h, "/select/batch", batchBody(t, batch)); rec.Code != http.StatusOK {
		t.Fatalf("batch: status = %d (body %s)", rec.Code, rec.Body)
	}
	snap := reg.Snapshot()
	if snap["interleave.builds"] != 0 {
		t.Errorf("interleave.builds = %d after selections only, want 0", snap["interleave.builds"])
	}
	if snap["core.evaluator.builds"] != 1 {
		t.Errorf("core.evaluator.builds = %d, want 1 (one session)", snap["core.evaluator.builds"])
	}
	for i := 0; i < 2; i++ {
		if rec := postReconstruct(t, h, toyBody(t, paperObservation())); rec.Code != http.StatusOK {
			t.Fatalf("reconstruct: status = %d (body %s)", rec.Code, rec.Body)
		}
	}
	if n := reg.Snapshot()["interleave.builds"]; n != 1 {
		t.Errorf("interleave.builds = %d after reconstructions, want 1", n)
	}
}

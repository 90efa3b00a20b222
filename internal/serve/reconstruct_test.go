package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tracescale/internal/obs"
)

// paperObservation is the /reconstruct knobs for the paper's walkthrough:
// trace ReqE+GntE on the two-agent toy, observe 1:ReqE 1:GntE 2:ReqE.
func paperObservation() map[string]any {
	return map[string]any{
		"traced": []string{"ReqE", "GntE"},
		"observed": []map[string]any{
			{"name": "ReqE", "index": 1},
			{"name": "GntE", "index": 1},
			{"name": "ReqE", "index": 2},
		},
	}
}

func postReconstruct(t testing.TB, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reconstruct", bytes.NewReader(body)))
	return rec
}

func TestReconstructToyObservation(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	extra := paperObservation()
	extra["maxWitnesses"] = 4
	rec := postReconstruct(t, h, toyBody(t, extra))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ReconstructResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Tracing both messages of the toy fully disambiguates: the observed
	// prefix pins exactly one execution out of the six.
	if resp.Ambiguity != "1" || !resp.Exact {
		t.Errorf("ambiguity = %s (exact %v), want exactly 1", resp.Ambiguity, resp.Exact)
	}
	if resp.TotalPaths != "6" {
		t.Errorf("totalPaths = %s, want 6", resp.TotalPaths)
	}
	if resp.Mode != "exact" || resp.Match != "prefix" {
		t.Errorf("mode/match = %s/%s, want exact/prefix defaults", resp.Mode, resp.Match)
	}
	if len(resp.Witnesses) != 1 {
		t.Fatalf("witnesses = %v, want the single consistent execution", resp.Witnesses)
	}
	// The witness is a full execution; its projection onto the traced set
	// (untraced Acks dropped) must start with the observation.
	var projected []string
	for _, m := range resp.Witnesses[0] {
		if strings.HasSuffix(m, ":ReqE") || strings.HasSuffix(m, ":GntE") {
			projected = append(projected, m)
		}
	}
	if got := strings.Join(projected[:3], " "); got != "1:ReqE 1:GntE 2:ReqE" {
		t.Errorf("witness projection does not start with the observation: %v", resp.Witnesses[0])
	}
	if len(resp.Survivors) != 4 {
		t.Errorf("survivors = %v, want one entry per matched prefix length 0..3", resp.Survivors)
	}
	if snap := reg.Snapshot(); snap["serve.reconstruct.requests"] != 1 || snap["serve.ok"] != 1 {
		t.Errorf("metrics = %v, want one reconstruct request and one ok", snap)
	}
}

func TestReconstructBeamMode(t *testing.T) {
	h := NewHandler(Config{Registry: obs.NewRegistry()})
	extra := paperObservation()
	extra["mode"] = "beam"
	extra["beamWidth"] = 8
	rec := postReconstruct(t, h, toyBody(t, extra))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ReconstructResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Width 8 exceeds every frontier of the toy, so the beam is lossless.
	if resp.Mode != "beam" || !resp.Exact || resp.Ambiguity != "1" {
		t.Errorf("lossless beam: mode=%s exact=%v ambiguity=%s, want beam/true/1",
			resp.Mode, resp.Exact, resp.Ambiguity)
	}
}

// TestReconstructRequestErrors pins the status discipline: malformed
// bodies and options are 400, engine rejections are 422.
func TestReconstructRequestErrors(t *testing.T) {
	h := NewHandler(Config{Registry: obs.NewRegistry()})
	badMode := paperObservation()
	badMode["mode"] = "genetic"
	beamless := paperObservation()
	beamless["mode"] = "beam" // beamWidth missing: the engine rejects it
	untraced := map[string]any{
		"traced":   []string{"ReqE"},
		"observed": []map[string]any{{"name": "GntE", "index": 1}},
	}
	outOfRange := map[string]any{
		"traced":   []string{"ReqE"},
		"observed": []map[string]any{{"name": "ReqE", "index": 7}},
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"get not allowed", nil, http.StatusMethodNotAllowed},
		{"malformed json", []byte("{"), http.StatusBadRequest},
		{"unknown field", toyBody(t, map[string]any{"traced": []string{"ReqE"}, "beamwidth_typo": 1}), http.StatusBadRequest},
		{"unknown mode", toyBody(t, badMode), http.StatusBadRequest},
		{"bad match", toyBody(t, map[string]any{"traced": []string{"ReqE"}, "match": "fuzzy"}), http.StatusBadRequest},
		{"beam without width", toyBody(t, beamless), http.StatusUnprocessableEntity},
		{"observed untraced message", toyBody(t, untraced), http.StatusUnprocessableEntity},
		{"observed index out of range", toyBody(t, outOfRange), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			if tc.body == nil {
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/reconstruct", nil))
			} else {
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reconstruct", bytes.NewReader(tc.body)))
			}
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
		})
	}
}

// TestReconstructMemoAcrossRequests: two identical POSTs answer
// byte-identically and the second hits the session memo.
func TestReconstructMemoAcrossRequests(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	body := toyBody(t, paperObservation())
	first := postReconstruct(t, h, body)
	again := postReconstruct(t, h, body)
	if first.Code != http.StatusOK || again.Code != http.StatusOK {
		t.Fatalf("statuses = %d, %d", first.Code, again.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
		t.Error("repeated reconstruction diverged")
	}
	if snap := reg.Snapshot(); snap["pipeline.reconstruct.hits"] != 1 {
		t.Errorf("pipeline.reconstruct.hits = %d, want 1", snap["pipeline.reconstruct.hits"])
	}
}

// TestReconstructTimeoutReturns504: an expired server-side deadline maps
// to 504 even though the engine itself is not context-aware.
func TestReconstructTimeoutReturns504(t *testing.T) {
	h := NewHandler(Config{Registry: obs.NewRegistry(), RequestTimeout: time.Nanosecond})
	rec := postReconstruct(t, h, toyBody(t, paperObservation()))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
}

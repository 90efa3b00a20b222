package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tracescale/internal/core"
)

// Every registered strategy name is a valid HTTP method value, and the
// response echoes it back — the ParseMethod round-trip, observed at the
// wire. The registry feeds both ends, so a strategy added to core is
// servable with no serve-layer change.
func TestAllRegisteredMethodsServable(t *testing.T) {
	h := NewHandler(Config{})
	for _, name := range core.MethodNames() {
		rec := post(t, h, toyBody(t, map[string]any{"method": name}))
		if rec.Code != http.StatusOK {
			t.Errorf("method %q: status = %d, body %s", name, rec.Code, rec.Body)
			continue
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Method != name {
			t.Errorf("method %q echoed back as %q", name, resp.Method)
		}
		if len(resp.Selected) == 0 {
			t.Errorf("method %q selected nothing", name)
		}
	}
}

// An option the requested method cannot honor is a 422 with the core
// rejection in the body — never a silently dropped knob.
func TestUnsupportedOptionsReturn422(t *testing.T) {
	h := NewHandler(Config{})
	cases := []struct {
		name string
		body map[string]any
		want string
	}{
		{"keepCandidates+knapsack", map[string]any{"method": "knapsack", "keepCandidates": true}, "does not support KeepCandidates"},
		{"workers+greedy", map[string]any{"method": "greedy", "workers": 2}, "does not support Workers"},
		{"workers+branch-bound", map[string]any{"method": "branch-bound", "workers": 2}, "does not support Workers"},
		{"workers+exhaustive", map[string]any{"method": "exhaustive", "workers": 2}, "does not support Workers > 1"},
		{"width over the limit", map[string]any{"width": core.MaxBufferWidth + 1}, "65536-bit limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, toyBody(t, tc.body))
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422 (body %s)", rec.Code, rec.Body)
			}
			var body errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(body.Error, tc.want) {
				t.Errorf("error %q does not explain the rejection (%q)", body.Error, tc.want)
			}
		})
	}
}

// keepCandidates on the exhaustive method returns the full feasible
// candidate list alongside the winner, every entry within budget.
func TestKeepCandidatesReturnsCandidates(t *testing.T) {
	h := NewHandler(Config{})
	rec := post(t, h, toyBody(t, map[string]any{"keepCandidates": true}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) < 2 {
		t.Fatalf("candidates = %d, want the full feasible set", len(resp.Candidates))
	}
	for _, c := range resp.Candidates {
		if c.Width > resp.BufferWidth {
			t.Errorf("candidate %v is %d bits, over the %d-bit budget", c.Messages, c.Width, resp.BufferWidth)
		}
		if len(c.Messages) == 0 {
			t.Error("candidate with no messages")
		}
	}
}

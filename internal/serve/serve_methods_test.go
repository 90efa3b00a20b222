package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"tracescale/internal/core"
	"tracescale/internal/obs"
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, toyBody(t, tc.body))
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422 (body %s)", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("body %q does not explain the rejection (%q)", rec.Body, tc.want)
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
	// Workers > 1 on exhaustive (which shards) stays a 200, and the count
	// is an upper bound: a huge one is clamped to GOMAXPROCS instead of
	// fanning the 2^16-mask scan out into one goroutine per mask.
	reg := obs.NewRegistry()
	h = NewHandler(Config{Registry: reg})
	if rec := post(t, h, slowBody(t, 16, map[string]any{"workers": 1 << 30})); rec.Code != http.StatusOK {
		t.Fatalf("huge workers on exhaustive: status = %d, body %s", rec.Code, rec.Body)
	}
	if got, procs := reg.Snapshot()["core.select.workers"], int64(runtime.GOMAXPROCS(0)); got < 1 || got > procs {
		t.Errorf("core.select.workers = %d, want 1..GOMAXPROCS=%d", got, procs)
	}
}

package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"tracescale/internal/flow"
	"tracescale/internal/reconstruct"
	"tracescale/internal/spec"
)

// ObservedMsg is one buffer entry in wire form: the message name plus the
// flow-instance index it carries (the paper's i:Name notation split into
// fields, so clients never parse strings).
type ObservedMsg struct {
	Name  string `json:"name"`
	Index int    `json:"index"`
}

// ReconstructOptions are the reconstruction knobs a request carries
// alongside its scenario and projection.
type ReconstructOptions struct {
	// Mode selects the engine: "exact" (default) counts and enumerates the
	// full consistent set; "beam" bounds the frontier and reports a lower
	// bound when it prunes.
	Mode string `json:"mode,omitempty"`
	// BeamWidth caps the per-state frontier in beam mode (required there,
	// rejected in exact mode).
	BeamWidth int `json:"beamWidth,omitempty"`
	// Match is the observation semantics: "prefix" (default — the buffer
	// stopped recording mid-run) or "exact" (the observation is the whole
	// projection).
	Match string `json:"match,omitempty"`
	// MaxWitnesses caps the explicit executions returned (exact mode only;
	// 0 = none — counting alone is much cheaper than enumeration).
	MaxWitnesses int `json:"maxWitnesses,omitempty"`
}

// ReconstructRequest is the POST /reconstruct body: a scenario spec with
// the observed projection and reconstruction options inline.
type ReconstructRequest struct {
	spec.Scenario
	ReconstructOptions
	// Traced is the signal set the trace buffer carried — the selection the
	// debugger deployed, typically a /select response's "selected" list.
	Traced []string `json:"traced"`
	// Observed is the projection read back from the buffer, in order.
	Observed []ObservedMsg `json:"observed"`
}

// ReconstructResponse is the POST /reconstruct reply. Ambiguity and
// TotalPaths are decimal strings: consistent-execution counts grow
// factorially and overflow JSON numbers long before they overflow the
// engine.
type ReconstructResponse struct {
	Scenario string `json:"scenario,omitempty"`
	Mode     string `json:"mode"`
	Match    string `json:"match"`
	// Ambiguity is the number of executions consistent with the
	// observation — exact when Exact, else a lower bound.
	Ambiguity string `json:"ambiguity"`
	Exact     bool   `json:"exact"`
	// TotalPaths is the unobserved execution count, for scale: the
	// observation narrowed TotalPaths executions down to Ambiguity.
	TotalPaths string `json:"totalPaths"`
	// Survivors[j] counts product states still live after j observed
	// messages — where along the buffer the search space collapses.
	Survivors []int `json:"survivors"`
	// Witnesses are explicit consistent executions in i:Name notation,
	// capped by maxWitnesses.
	Witnesses [][]string `json:"witnesses,omitempty"`
	// Nodes is the search effort the engine spent.
	Nodes int `json:"nodes"`
}

// reconstructArgs resolves the wire request into engine inputs.
func (req *ReconstructRequest) reconstructArgs() (reconstruct.Projection, reconstruct.Options, error) {
	mode, err := reconstruct.ParseMode(req.Mode)
	if err != nil {
		return reconstruct.Projection{}, reconstruct.Options{}, err
	}
	match, err := reconstruct.ParseMatch(req.Match)
	if err != nil {
		return reconstruct.Projection{}, reconstruct.Options{}, err
	}
	pr := reconstruct.Projection{Traced: req.Traced}
	for _, m := range req.Observed {
		pr.Observed = append(pr.Observed, flow.IndexedMsg{Name: m.Name, Index: m.Index})
	}
	opt := reconstruct.Options{
		Mode:         mode,
		BeamWidth:    req.BeamWidth,
		Match:        match,
		MaxWitnesses: req.MaxWitnesses,
	}
	return pr, opt, nil
}

func (h *Handler) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		h.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed, POST a scenario with an observation", r.Method))
		return
	}
	h.reg.Counter("serve.reconstruct.requests").Inc()

	release, ok := h.acquire(w)
	if !ok {
		return
	}
	defer release()

	var req ReconstructRequest
	if err := decodeInto(w, r, h.maxBody, &req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		h.fail(w, status, err)
		return
	}
	if err := req.Scenario.Validate(); err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	pr, opt, err := req.reconstructArgs()
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	insts, err := req.Scenario.Build()
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := h.requestCtx(r)
	defer cancel()

	ses, err := h.cache.Session(insts)
	if err != nil {
		h.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Session.Reconstruct is not context-aware (the DP is one memoized
	// sweep, not a shard scan), so the deadline is enforced around it: a
	// timed-out request gets its 504 while the computation runs to
	// completion in the background and lands in the memo for the retry.
	type outcome struct {
		res *reconstruct.Result
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := ses.Reconstruct(pr, opt)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-ctx.Done():
	}
	// The deadline strictly wins: when the engine finishes as the deadline
	// passes, select picks either ready case at random, and an expired
	// request must still get its 504.
	if err := ctx.Err(); err != nil {
		out.err = err
	}
	h.reg.Add("serve.reconstruct_ns", time.Since(start).Nanoseconds())
	if out.err != nil {
		h.failSelect(w, out.err)
		return
	}

	h.reg.Counter("serve.ok").Inc()
	writeJSON(w, http.StatusOK, buildReconstructResponse(req.Name, opt, ses.Product().TotalPaths(), out.res))
}

func buildReconstructResponse(scenario string, opt reconstruct.Options, total fmt.Stringer, res *reconstruct.Result) *ReconstructResponse {
	resp := &ReconstructResponse{
		Scenario:   scenario,
		Mode:       opt.Mode.String(),
		Match:      reconstruct.MatchName(opt.Match),
		Ambiguity:  res.Ambiguity.String(),
		Exact:      res.Exact,
		TotalPaths: total.String(),
		Survivors:  res.Survivors,
		Nodes:      res.Nodes,
	}
	for _, wit := range res.Witnesses {
		rendered := make([]string, len(wit))
		for i, m := range wit {
			rendered[i] = m.String()
		}
		resp.Witnesses = append(resp.Witnesses, rendered)
	}
	return resp
}

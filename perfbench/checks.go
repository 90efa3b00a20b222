package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/pipeline"
	"tracescale/internal/reconstruct"
	"tracescale/internal/serve"
)

// gainTolerance is how far an exact method's gain may sit from the
// oracle's: the selectors compare scores at this epsilon.
const gainTolerance = 1e-12

// checkSelection verifies one selection response against its request:
// the method and budget it answered for, a width within the budget, and
// every traced or packed name drawn from the scenario's universe.
func checkSelection(r *serve.Response, method core.Method, budget int, universe map[string]flow.Message) error {
	if r.Method != method.String() || r.BufferWidth != budget {
		return fmt.Errorf("answered %s at width %d, asked %s at %d", r.Method, r.BufferWidth, method, budget)
	}
	if r.Width > budget || r.SelectedWidth > budget || r.SelectedWidth > r.Width {
		return fmt.Errorf("width %d (selected %d) exceeds budget %d", r.Width, r.SelectedWidth, budget)
	}
	sum := 0
	for _, n := range r.Selected {
		m, ok := universe[n]
		if !ok {
			return fmt.Errorf("selected %q is not in the universe", n)
		}
		sum += m.Width
	}
	if sum != r.SelectedWidth {
		return fmt.Errorf("selected widths sum to %d, response says %d", sum, r.SelectedWidth)
	}
	for _, g := range r.Packed {
		m, ok := universe[g.Message]
		if !ok {
			return fmt.Errorf("packed parent %q is not in the universe", g.Message)
		}
		found := false
		for _, mg := range m.Groups {
			found = found || (mg.Name == g.Group && mg.Width == g.Width)
		}
		if !found {
			return fmt.Errorf("packed group %s.%s/%d is not a subgroup of its message", g.Message, g.Group, g.Width)
		}
	}
	if math.IsNaN(r.Gain) || r.Gain < r.SelectedGain-gainTolerance {
		return fmt.Errorf("gain %v below the selected gain %v", r.Gain, r.SelectedGain)
	}
	return nil
}

// checkResponse verifies a 200 response body for req.
func checkResponse(req *request, body []byte) error {
	switch req.path {
	case "/select":
		var r serve.Response
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return checkSelection(&r, req.method, req.budget, req.universe)
	case "/select/batch":
		var r serve.BatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Results) != len(req.batch) {
			return fmt.Errorf("batch of %d answered with %d results", len(req.batch), len(r.Results))
		}
		for i, it := range r.Results {
			if it.Error != "" || it.Result == nil {
				return fmt.Errorf("batch item %d failed: %s", i, it.Error)
			}
			m, err := core.ParseMethod(req.batch[i].Method)
			if err != nil {
				return err
			}
			if err := checkSelection(it.Result, m, req.batch[i].Width, req.universe); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	default:
		var r serve.ReconstructResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		amb, ok1 := new(big.Int).SetString(r.Ambiguity, 10)
		total, ok2 := new(big.Int).SetString(r.TotalPaths, 10)
		switch {
		case !ok1 || !ok2:
			return fmt.Errorf("counts %q / %q are not integers", r.Ambiguity, r.TotalPaths)
		case !r.Exact || r.Mode != "exact" || r.Match != "prefix":
			return fmt.Errorf("answered mode %s match %s exact %v", r.Mode, r.Match, r.Exact)
		case amb.Sign() < 1:
			// The observation is a projection of a real execution.
			return fmt.Errorf("ambiguity %s leaves out the execution observed", amb)
		case amb.Cmp(total) > 0:
			return fmt.Errorf("ambiguity %s exceeds the %s total paths", amb, total)
		case len(r.Survivors) != len(req.observed)+1:
			return fmt.Errorf("%d survivor counts for %d observed messages", len(r.Survivors), len(req.observed))
		}
		return nil
	}
}

// oracleGain selects on a fresh, serial evaluator: exhaustive where its
// mask space is small, branch-and-bound otherwise. Both are exact, so any
// exact method must reach the same Step-2 gain.
func oracleGain(e *core.Evaluator, cfg core.Config) (float64, error) {
	cfg.Method, cfg.Workers, cfg.KeepCandidates = core.Exhaustive, 1, false
	if len(e.Universe()) > 16 {
		cfg.Method = core.BranchBound
	}
	res, err := core.Select(e, cfg)
	if err != nil {
		return 0, err
	}
	return res.SelectedGain, nil
}

// exactMethod reports whether m optimizes Step 2 exactly.
func exactMethod(m core.Method) bool {
	return m == core.Exhaustive || m == core.Knapsack || m == core.BranchBound
}

// checkExactGain compares a served Step-2 gain with the oracle's on the
// same instance set, built afresh.
func checkExactGain(insts []flow.Instance, cfg core.Config, served float64) error {
	ses, err := pipeline.NewSession(insts)
	if err != nil {
		return err
	}
	want, err := oracleGain(ses.Evaluator(), cfg)
	if err != nil {
		return err
	}
	if math.Abs(want-served) > gainTolerance {
		return fmt.Errorf("%s gain %.17g, serial oracle %.17g", cfg.Method, served, want)
	}
	return nil
}

// checkReconstruction recounts an observation with the beam engine at a
// width that prunes nothing (one cell per matched-prefix length) and
// compares it with the served exact count and the total path count.
func checkReconstruction(p *interleave.Product, traced []string, observed []flow.IndexedMsg, served, totalPaths string) error {
	res, err := reconstruct.Reconstruct(p, reconstruct.Projection{Traced: traced, Observed: observed},
		reconstruct.Options{Mode: reconstruct.Beam, BeamWidth: len(observed) + 1, Match: interleave.Prefix})
	if err != nil {
		return err
	}
	if res.Ambiguity.String() != served {
		return fmt.Errorf("exact count %s, lossless beam count %s", served, res.Ambiguity)
	}
	total, ok := new(big.Int).SetString(totalPaths, 10)
	if !ok || res.Ambiguity.Cmp(total) > 0 || total.Cmp(p.TotalPaths()) != 0 {
		return fmt.Errorf("count %s against %s total paths (product has %s)", res.Ambiguity, totalPaths, p.TotalPaths())
	}
	return nil
}

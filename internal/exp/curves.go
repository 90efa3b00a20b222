package exp

import (
	"fmt"
	"math/big"
	"math/rand"

	"tracescale/internal/core"
	flowpkg "tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
)

// LocalizationPoint is the path localization after observing the first k
// traced messages.
type LocalizationPoint struct {
	Observed     int
	Localization float64
}

// LocalizationCurve measures how each observed trace-buffer entry narrows
// the candidate-execution set for a case study: localization after the
// first k observed messages of the failing run's index-1 projection, for
// every prefix k. The paper's Figure-6 argument — "every one of our traced
// messages contributes to the debug process" — in path space.
func LocalizationCurve(caseID int, seed int64) ([]LocalizationPoint, error) {
	cs, err := opensparc.CaseStudyByID(caseID)
	if err != nil {
		return nil, err
	}
	run, err := RunCase(cs, seed)
	if err != nil {
		return nil, err
	}
	traced := nameSet(run.Selection.WP.TracedNames())
	observed := ObservedTrace(run.Buggy.Events, traced, 1)
	p := run.Selection.Evaluator.Product()
	var out []LocalizationPoint
	for k := 0; k <= len(observed); k++ {
		loc, err := p.Localization(traced, observed[:k], interleave.Prefix)
		if err != nil {
			return nil, fmt.Errorf("exp: localization after %d messages: %w", k, err)
		}
		out = append(out, LocalizationPoint{Observed: k, Localization: loc})
	}
	return out, nil
}

// BaselineRow compares a selection strategy's quality on one scenario.
type BaselineRow struct {
	Scenario string
	Method   string
	Gain     float64
	Coverage float64
}

// SelectionBaselines scores the information-gain selection against the
// scalable selectors (branch-bound, greedy) and the naive baselines
// (random, widest-first, coverage-greedy) on every usage scenario at the
// paper's 32-bit budget.
func SelectionBaselines(seed int64) ([]BaselineRow, error) {
	var out []BaselineRow
	for _, s := range opensparc.Scenarios() {
		ses, err := pipeline.For(s.Instances())
		if err != nil {
			return nil, err
		}
		e := ses.Evaluator()
		add := func(method string, c core.Candidate) {
			out = append(out, BaselineRow{Scenario: s.Name, Method: method, Gain: c.Gain, Coverage: c.Coverage})
		}
		res, err := ses.Select(core.Config{BufferWidth: BufferWidth, DisablePacking: true})
		if err != nil {
			return nil, err
		}
		add("info-gain", core.Candidate{Gain: res.SelectedGain, Coverage: res.SelectedCoverage})
		// The scalable selectors, against the exhaustive info-gain
		// reference: branch-bound is exact (identical row), greedy is the
		// density heuristic (never above it).
		for _, m := range []core.Method{core.BranchBound, core.Greedy} {
			r, err := ses.Select(core.Config{BufferWidth: BufferWidth, Method: m, DisablePacking: true})
			if err != nil {
				return nil, err
			}
			add(m.String(), core.Candidate{Gain: r.SelectedGain, Coverage: r.SelectedCoverage})
		}
		cov, err := ses.Select(core.Config{BufferWidth: BufferWidth, Method: core.MaxCoverage, DisablePacking: true})
		if err != nil {
			return nil, err
		}
		add("max-coverage", core.Candidate{Gain: cov.SelectedGain, Coverage: cov.SelectedCoverage})
		wf, err := core.WidestFirstBaseline(e, BufferWidth)
		if err != nil {
			return nil, err
		}
		add("widest-first", wf)
		// Random: average over a handful of draws.
		const draws = 8
		var g, c float64
		for d := int64(0); d < draws; d++ {
			r, err := core.RandomBaseline(e, BufferWidth, seed+d)
			if err != nil {
				return nil, err
			}
			g += r.Gain
			c += r.Coverage
		}
		add("random(avg)", core.Candidate{Gain: g / draws, Coverage: c / draws})
	}
	return out, nil
}

// TaggingRow compares localization with and without instance tags for one
// replicated-flow workload.
type TaggingRow struct {
	Workload  string
	Instances int
	Tagged    float64
	Untagged  float64
}

// TaggingAblation quantifies what architectural tagging (Definition 3)
// buys. Tags only carry information when several instances of the *same*
// flow interleave — exactly the situation tagging hardware exists for —
// so the ablation replicates a flow k times, samples an execution,
// truncates it mid-flight, and localizes the observation with and without
// the tags. Most SoCs invest real silicon in transaction tags; this is
// the debug payoff.
func TaggingAblation(seed int64) ([]TaggingRow, error) {
	rng := rand.New(rand.NewSource(seed))
	catalog := opensparc.Flows()
	configs := []struct {
		name string
		fl   *flowpkg.Flow
		k    int
	}{
		{"cache-coherence", flowpkg.CacheCoherence(), 2},
		{"cache-coherence", flowpkg.CacheCoherence(), 3},
		{"Mondo", catalog[opensparc.FlowMon], 2},
		{"PIO-write", catalog[opensparc.FlowPIOW], 3},
	}
	var out []TaggingRow
	for _, cfg := range configs {
		insts := make([]flowpkg.Instance, cfg.k)
		for i := range insts {
			insts[i] = flowpkg.Instance{Flow: cfg.fl, Index: i + 1}
		}
		ses, err := pipeline.For(insts)
		if err != nil {
			return nil, err
		}
		p := ses.Product()
		traced := make(map[string]bool)
		for _, m := range cfg.fl.Messages() {
			traced[m.Name] = true
		}
		// Observe the first two thirds of a sampled execution.
		ex := p.RandomExecution(rng)
		full := ex.Trace(p)
		observed := full[:len(full)*2/3]
		tagged, err := p.Localization(traced, observed, interleave.Prefix)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(observed))
		for i, m := range observed {
			names[i] = m.Name
		}
		cu, err := p.ConsistentPathsUnindexed(traced, names, interleave.Prefix)
		if err != nil {
			return nil, err
		}
		frac := new(big.Rat).SetFrac(cu, p.TotalPaths())
		untagged, _ := frac.Float64()
		out = append(out, TaggingRow{Workload: cfg.name, Instances: cfg.k, Tagged: tagged, Untagged: untagged})
	}
	return out, nil
}

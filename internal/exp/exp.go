// Package exp implements the paper's evaluation harness: one function per
// table and figure of the DAC'18 evaluation (§4-§5), producing structured
// results that one markdown section writer each prints (markdown.go; the
// report and cmd/paperbench share them), benchmarks time, and tests check
// for the paper's qualitative shapes. All experiments are deterministic
// given a seed.
package exp

import (
	"fmt"

	"tracescale/internal/core"
	"tracescale/internal/debugger"
	"tracescale/internal/flow"
	"tracescale/internal/inject"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/prng"
	"tracescale/internal/soc"
)

// BufferWidth is the trace-buffer width assumed throughout the paper's
// T2 experiments (Table 3).
const BufferWidth = 32

// InstancesPerFlow is the number of indexed instances of each
// participating flow launched per case-study run.
const InstancesPerFlow = 16

// launchStride staggers instance start cycles so flows interleave.
const launchStride = 24

// Selection bundles the with-packing and without-packing selection results
// for one usage scenario.
type Selection struct {
	Scenario  opensparc.Scenario
	Session   *pipeline.Session
	Evaluator *core.Evaluator
	WP        *core.Result // full pipeline (Steps 1-3)
	WoP       *core.Result // packing disabled
}

// SelectScenario runs the selection pipeline on a usage scenario's
// interleaved flow with the paper's 32-bit buffer. The analysis goes
// through the shared Session cache: every table, figure, and sweep that
// touches the same scenario reuses one interleaving, one evaluator, and —
// per Config — one selection Result.
func SelectScenario(s opensparc.Scenario) (*Selection, error) {
	ses, err := pipeline.For(s.Instances())
	if err != nil {
		return nil, fmt.Errorf("exp: scenario %d session: %w", s.ID, err)
	}
	wp, err := ses.Select(core.Config{BufferWidth: BufferWidth, KeepCandidates: true})
	if err != nil {
		return nil, fmt.Errorf("exp: scenario %d selection: %w", s.ID, err)
	}
	wop, err := ses.Select(core.Config{BufferWidth: BufferWidth, DisablePacking: true})
	if err != nil {
		return nil, fmt.Errorf("exp: scenario %d selection (WoP): %w", s.ID, err)
	}
	return &Selection{Scenario: s, Session: ses, Evaluator: ses.Evaluator(), WP: wp, WoP: wop}, nil
}

// SimulateWorkloads replays every usage scenario's workload through the
// SoC simulator, recording soc.* metrics into the default registry. The
// analytic experiments (Figure 5, the tables that never simulate) leave
// the simulator counters empty; -metrics-json uses this replay so a
// snapshot of any run still reflects real simulated traffic.
func SimulateWorkloads(seed int64) error {
	for _, s := range opensparc.Scenarios() {
		sc := soc.Scenario{Name: s.Name, Launches: s.Launches(InstancesPerFlow, launchStride)}
		if _, err := soc.Run(sc, soc.Config{Seed: seed, Obs: obs.Default}); err != nil {
			return fmt.Errorf("exp: workload replay of scenario %d: %w", s.ID, err)
		}
	}
	return nil
}

// CaseRun is one executed case study: golden and buggy simulations, the
// observation through the selected trace messages, and the debugging
// report.
type CaseRun struct {
	Case      opensparc.CaseStudy
	Selection *Selection
	Golden    *soc.Result
	Buggy     *soc.Result
	Obs       debugger.Observation
	Report    *debugger.Report
	// LocWP and LocWoP are the path-localization fractions (consistent
	// executions / total executions of the interleaved flow) using the
	// with-packing and without-packing traced sets.
	LocWP, LocWoP float64
}

// RunCase executes one case study end to end: simulate golden and buggy
// designs on the scenario workload, observe through the selected messages,
// debug, and localize. Both runs and the session read one stream of seed.
func RunCase(cs opensparc.CaseStudy, seed int64) (*CaseRun, error) {
	sel, err := SelectScenario(cs.Scenario)
	if err != nil {
		return nil, err
	}
	sc := soc.Scenario{
		Name:     cs.Scenario.Name,
		Launches: cs.Scenario.Launches(InstancesPerFlow, launchStride),
	}
	stream := prng.New(seed)
	cfg := soc.Config{Seed: seed, Obs: obs.Default, Stream: stream}
	golden, err := soc.Run(sc, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: case %d golden run: %w", cs.ID, err)
	}
	cfg.Injectors = inject.Injectors(cs.Bug())
	buggy, err := soc.Run(sc, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: case %d buggy run: %w", cs.ID, err)
	}
	if buggy.Passed() {
		return nil, fmt.Errorf("exp: case %d bug %d did not manifest", cs.ID, cs.BugID)
	}

	tracedWP := nameSet(sel.WP.TracedNames())
	obs := debugger.Observe(golden, buggy, tracedWP)
	causes, err := opensparc.Causes(cs.Scenario.ID)
	if err != nil {
		return nil, err
	}
	plan, err := debugger.Compile(debugger.Config{
		Universe: cs.Scenario.Universe(),
		Flows:    cs.Scenario.Flows(),
		Traced:   sel.WP.TracedNames(),
		Causes:   causes,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: case %d debug: %w", cs.ID, err)
	}
	report, err := plan.Debug(obs, stream.Rand())
	if err != nil {
		return nil, fmt.Errorf("exp: case %d debug: %w", cs.ID, err)
	}

	run := &CaseRun{
		Case: cs, Selection: sel, Golden: golden, Buggy: buggy,
		Obs: obs, Report: report,
	}
	p := sel.Evaluator.Product()
	run.LocWP, err = localize(p, buggy, tracedWP)
	if err != nil {
		return nil, fmt.Errorf("exp: case %d localization (WP): %w", cs.ID, err)
	}
	run.LocWoP, err = localize(p, buggy, nameSet(sel.WoP.TracedNames()))
	if err != nil {
		return nil, fmt.Errorf("exp: case %d localization (WoP): %w", cs.ID, err)
	}
	return run, nil
}

// localize computes the fraction of interleaved-flow executions consistent
// with the buggy run's traced observation of the index-1 instances. The
// analysis product carries one instance (index 1) per flow, and the
// simulator enforces the same atomic-mutex semantics, so the index-1
// projection of the event stream is a legal (possibly truncated) execution
// of the product.
func localize(p *interleave.Product, buggy *soc.Result, traced map[string]bool) (float64, error) {
	observed := ObservedTrace(buggy.Events, traced, 1)
	return p.Localization(traced, observed, interleave.Prefix)
}

// ObservedTrace extracts, in emission order, the traced messages of the
// given instance index from a run's delivered events — what the trace
// buffer holds for that tag.
func ObservedTrace(events []soc.Event, traced map[string]bool, index int) []flow.IndexedMsg {
	var out []flow.IndexedMsg
	for _, ev := range events {
		if ev.Dropped || ev.Msg.Index != index || !traced[ev.Msg.Name] {
			continue
		}
		out = append(out, ev.Msg)
	}
	return out
}

func nameSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

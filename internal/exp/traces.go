package exp

import (
	"fmt"
	"math/rand"

	"tracescale/internal/campaign"
	"tracescale/internal/debugger"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
)

// CapturePlan compiles a selection result into a trace-buffer capture
// plan: full capture for selected messages, subgroup windows for packed
// groups (subgroup bit offsets follow group declaration order).
func CapturePlan(sel *Selection) (*tbuf.CapturePlan, error) {
	var rules []tbuf.Rule
	for _, name := range sel.WP.Selected {
		m, ok := sel.Evaluator.MessageByName(name)
		if !ok {
			return nil, fmt.Errorf("exp: selected message %q missing from universe", name)
		}
		rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
	}
	for _, g := range sel.WP.Packed {
		m, ok := sel.Evaluator.MessageByName(g.Message)
		if !ok {
			return nil, fmt.Errorf("exp: packed message %q missing from universe", g.Message)
		}
		offset := 0
		for _, mg := range m.Groups {
			if mg.Name == g.Group {
				break
			}
			offset += mg.Width
		}
		rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Offset: offset, Bits: g.Width})
	}
	return tbuf.NewCapturePlan(rules)
}

// TraceFiles runs a case study and returns the golden and buggy
// trace-buffer contents as captured through the selection's plan — the
// two artifacts a post-silicon debugging session actually starts from.
func TraceFiles(run *CaseRun) (golden, buggy []tbuf.Entry, err error) {
	plan, err := CapturePlan(run.Selection)
	if err != nil {
		return nil, nil, err
	}
	capture := func(events []soc.Event) ([]tbuf.Entry, error) {
		buf := tbuf.New(BufferWidth, len(events)+1)
		mon := soc.NewMonitor(plan, buf, nil)
		if err := mon.Consume(events); err != nil {
			return nil, err
		}
		return buf.Entries(), nil
	}
	if golden, err = capture(run.Golden.Events); err != nil {
		return nil, nil, err
	}
	if buggy, err = capture(run.Buggy.Events); err != nil {
		return nil, nil, err
	}
	return golden, buggy, nil
}

// DebugFromTraces reruns the debugging session using only the captured
// trace files (no event streams) — validating that the workflow the paper
// describes is achievable from buffer contents alone.
func DebugFromTraces(run *CaseRun, seed int64) (*debugger.Report, error) {
	golden, buggy, err := TraceFiles(run)
	if err != nil {
		return nil, err
	}
	traced := nameSet(run.Selection.WP.TracedNames())
	obs := debugger.ObserveEntries(golden, buggy, traced, run.Obs.FocusIndex)
	obs.Symptoms = run.Buggy.Symptoms
	causes, err := opensparc.Causes(run.Case.Scenario.ID)
	if err != nil {
		return nil, err
	}
	return debugger.Debug(obs, debugger.Config{
		Universe: run.Case.Scenario.Universe(),
		Flows:    run.Case.Scenario.Flows(),
		Traced:   run.Selection.WP.TracedNames(),
		Causes:   causes,
		Seed:     seed,
	})
}

// Golden mining-corpus shape: goldenCorpusReps traces per scenario, each
// running every flow goldenCorpusTags transactions deep with launch cycles
// jittered by up to goldenCorpusJit and a wide latency spread. Diversity
// is load-bearing: a flow's first message fires at exactly its launch
// cycle, so without jitter every head message invariantly precedes every
// cross-flow non-head message and the miner — soundly — merges what the
// corpus cannot tell apart.
const (
	goldenCorpusReps = 3
	goldenCorpusTags = 8
	goldenCorpusJit  = 13
)

// GoldenCorpus simulates golden (bug-free) runs of the scenario and
// captures them at full width with no wraparound: the interleaved corpus
// the mined-vs-truth campaign mines flow specs from. Run seeds derive from
// seed in a reserved index range so they never collide with campaign
// grid-point seeds.
func GoldenCorpus(s opensparc.Scenario, seed int64) ([][]tbuf.Entry, error) {
	var rules []tbuf.Rule
	width := 0
	for _, m := range s.Universe() {
		rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
		width += m.Width
	}
	plan, err := tbuf.NewCapturePlan(rules)
	if err != nil {
		return nil, err
	}
	var traces [][]tbuf.Entry
	for r := 0; r < goldenCorpusReps; r++ {
		runSeed := campaign.DerivedSeed(seed, 1<<20+s.ID*64+r)
		jit := rand.New(rand.NewSource(runSeed))
		var launches []soc.Launch
		for _, f := range s.Flows() {
			for k := 1; k <= goldenCorpusTags; k++ {
				launches = append(launches, soc.Launch{
					Flow: f, Index: k, Start: uint64(8*(k-1) + jit.Intn(goldenCorpusJit)),
				})
			}
		}
		res, err := soc.Run(soc.Scenario{Name: s.Name, Launches: launches},
			soc.Config{Seed: runSeed, MaxLatency: 20})
		if err != nil {
			return nil, err
		}
		if !res.Passed() {
			return nil, fmt.Errorf("golden corpus run %d failed: %v", r, res.Symptoms)
		}
		mon := soc.NewMonitor(plan, tbuf.New(width, len(res.Events)+1), nil)
		if err := mon.Consume(res.Events); err != nil {
			return nil, err
		}
		traces = append(traces, mon.Buffer().Entries())
	}
	return traces, nil
}

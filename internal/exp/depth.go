package exp

import (
	"tracescale/internal/debugger"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
)

// DepthRow reports the observation quality at one buffer depth.
type DepthRow struct {
	Depth int
	// Captured is the number of entries surviving in the window.
	Captured int
	// Misclassified counts traced messages whose status differs from the
	// full-trace observation — wraparound-induced false evidence.
	Misclassified int
	// GroundTruthSurvives reports whether debugging with the windowed
	// observation still keeps the injected cause plausible.
	GroundTruthSurvives bool
}

// DepthStudy quantifies the other axis of the trace buffer: depth. The
// selection experiments assume the buffer holds the relevant window; a
// shallow circular buffer evicts early entries, making healthy messages
// look reduced or missing and potentially misleading root-cause analysis.
// The study captures one case study's buggy trace at several depths and
// diffs each windowed observation against the full one.
func DepthStudy(caseID int, depths []int, seed int64) ([]DepthRow, error) {
	cs, err := opensparc.CaseStudyByID(caseID)
	if err != nil {
		return nil, err
	}
	run, err := RunCase(cs, seed)
	if err != nil {
		return nil, err
	}
	plan, err := CapturePlan(run.Selection)
	if err != nil {
		return nil, err
	}
	traced := nameSet(run.Selection.WP.TracedNames())

	capture := func(events []soc.Event, depth int) ([]tbuf.Entry, error) {
		buf := tbuf.New(BufferWidth, depth)
		mon := soc.NewMonitor(plan, buf, nil)
		if err := mon.Consume(events); err != nil {
			return nil, err
		}
		return buf.Entries(), nil
	}

	// Reference: full-depth golden and buggy.
	goldenFull, err := capture(run.Golden.Events, len(run.Golden.Events)+1)
	if err != nil {
		return nil, err
	}
	buggyFull, err := capture(run.Buggy.Events, len(run.Buggy.Events)+1)
	if err != nil {
		return nil, err
	}
	ref := debugger.ObserveEntries(goldenFull, buggyFull, traced, run.Obs.FocusIndex)

	causes, err := opensparc.Causes(cs.Scenario.ID)
	if err != nil {
		return nil, err
	}

	var out []DepthRow
	for _, d := range depths {
		buggyWin, err := capture(run.Buggy.Events, d)
		if err != nil {
			return nil, err
		}
		obs := debugger.ObserveEntries(goldenFull, buggyWin, traced, run.Obs.FocusIndex)
		obs.Symptoms = run.Buggy.Symptoms
		mis := 0
		for name := range traced {
			if obs.Global[name] != ref.Global[name] || obs.Focused[name] != ref.Focused[name] {
				mis++
			}
		}
		rep, err := debugger.Debug(obs, debugger.Config{
			Universe: cs.Scenario.Universe(),
			Flows:    cs.Scenario.Flows(),
			Traced:   run.Selection.WP.TracedNames(),
			Causes:   causes,
			Seed:     seed,
		})
		if err != nil {
			return nil, err
		}
		row := DepthRow{Depth: d, Captured: len(buggyWin), Misclassified: mis}
		for _, c := range rep.Plausible {
			if c.ID == cs.GroundTruth {
				row.GroundTruthSurvives = true
			}
		}
		out = append(out, row)
	}
	return out, nil
}

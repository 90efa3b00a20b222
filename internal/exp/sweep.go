package exp

import (
	"fmt"
	"io"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/netlist"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/restore"
	"tracescale/internal/sigsel"
	"tracescale/internal/usb"
)

// WidthPoint is one buffer width's selection outcome for a scenario.
type WidthPoint struct {
	Width       int
	Selected    int // messages selected in Step 2
	Packed      int // subgroups packed in Step 3
	Utilization float64
	Gain        float64
	Coverage    float64
}

// WidthSweep runs the selection pipeline across trace-buffer widths — the
// design-space question a silicon architect actually asks ("what does the
// next byte of buffer buy?"). Gain and coverage grow monotonically with
// width; the knees show where the flows' messages saturate.
func WidthSweep(scenarioID int, widths []int) ([]WidthPoint, error) {
	s, err := opensparc.ScenarioByID(scenarioID)
	if err != nil {
		return nil, err
	}
	// One Session serves every width point: the interleaving and evaluator
	// are analyzed once, only Step 1-3 reruns per budget.
	ses, err := pipeline.For(s.Instances())
	if err != nil {
		return nil, err
	}
	var out []WidthPoint
	for _, w := range widths {
		res, err := ses.Select(core.Config{BufferWidth: w})
		if err != nil {
			return nil, fmt.Errorf("exp: width %d: %w", w, err)
		}
		out = append(out, WidthPoint{
			Width:       w,
			Selected:    len(res.Selected),
			Packed:      len(res.Packed),
			Utilization: res.Utilization,
			Gain:        res.Gain,
			Coverage:    res.Coverage,
		})
	}
	return out, nil
}

// RenderWidthSweep prints a width sweep for every usage scenario.
func RenderWidthSweep(w io.Writer, widths []int) error {
	header(w, "Buffer-width sweep: what the next bits of trace buffer buy")
	for _, s := range opensparc.Scenarios() {
		points, err := WidthSweep(s.ID, widths)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s:\n", s.Name)
		fmt.Fprintf(w, "  %-6s %-9s %-7s %-12s %-9s %s\n", "width", "selected", "packed", "utilization", "gain", "coverage")
		for _, p := range points {
			fmt.Fprintf(w, "  %-6d %-9d %-7d %-12s %-9.4f %s\n",
				p.Width, p.Selected, p.Packed, FormatPercent(p.Utilization), p.Gain, FormatPercent(p.Coverage))
		}
	}
	return nil
}

// SRRRow compares one selection method on both axes: the metric SRR-based
// tools optimize (state restoration) and the metric use-case debugging
// needs (flow-spec coverage).
type SRRRow struct {
	Method   string
	SRR      float64
	Coverage float64
}

// SRRCrossover quantifies §5.4's "optimizing the wrong metric": on the USB
// design, SigSeT wins state restoration by an order of magnitude while the
// information-gain selection wins flow-spec coverage — each method tops
// the axis it optimizes.
func SRRCrossover(seed int64) ([]SRRRow, error) {
	n := usb.Design()
	tr := netlist.Record(n, 48, seed)

	srrOf := func(ffs []int) (float64, error) {
		if len(ffs) == 0 {
			return 0, nil
		}
		res, err := restore.Restore(tr, ffs)
		if err != nil {
			return 0, err
		}
		return res.SRR, nil
	}

	sigSel, err := sigsel.SigSeT(n, sigsel.SigSeTConfig{Budget: BufferWidth, Seed: seed})
	if err != nil {
		return nil, err
	}
	prSel, err := sigsel.PRNet(n, sigsel.PRNetConfig{Budget: BufferWidth})
	if err != nil {
		return nil, err
	}

	// The USB scenario's Session is shared with Table 4 (identical flow
	// structure fingerprints the same), so the crossover study reuses that
	// analysis and selection outright.
	ses, err := pipeline.For([]flow.Instance{
		{Flow: usb.TokenRX(n), Index: 1},
		{Flow: usb.DataTX(n), Index: 1},
	})
	if err != nil {
		return nil, err
	}
	e := ses.Evaluator()
	ours, err := ses.Select(core.Config{BufferWidth: BufferWidth})
	if err != nil {
		return nil, err
	}
	// The information-gain selection traces interface buses; its flip-flop
	// set is the union of the selected buses' bits.
	var ourFFs []int
	for _, name := range ours.TracedNames() {
		ourFFs = append(ourFFs, n.Bus(name)...)
	}

	coverage := func(sel []int) (float64, error) {
		var observable []string
		for _, bus := range usb.Buses {
			if sigsel.StatusOf(n, sel, bus) == sigsel.Full {
				observable = append(observable, bus)
			}
		}
		if len(observable) == 0 {
			return 0, nil
		}
		return e.Coverage(observable)
	}

	rows := make([]SRRRow, 0, 3)
	for _, m := range []struct {
		name string
		ffs  []int
		cov  func() (float64, error)
	}{
		{"SigSeT", sigSel, func() (float64, error) { return coverage(sigSel) }},
		{"PRNet", prSel, func() (float64, error) { return coverage(prSel) }},
		{"InfoGain", ourFFs, func() (float64, error) { return ours.Coverage, nil }},
	} {
		srr, err := srrOf(m.ffs)
		if err != nil {
			return nil, err
		}
		cov, err := m.cov()
		if err != nil {
			return nil, err
		}
		rows = append(rows, SRRRow{Method: m.name, SRR: srr, Coverage: cov})
	}
	return rows, nil
}

// RenderSRRCrossover prints the crossover table.
func RenderSRRCrossover(w io.Writer, seed int64) error {
	rows, err := SRRCrossover(seed)
	if err != nil {
		return err
	}
	writeSRRCrossover(w, rows)
	return nil
}

func writeSRRCrossover(w io.Writer, rows []SRRRow) {
	header(w, "SRR vs flow-spec coverage on the USB design (each method tops its own metric)")
	fmt.Fprintf(w, "%-10s %-8s %s\n", "Method", "SRR", "FSP coverage")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8.2f %s\n", r.Method, r.SRR, FormatPercent(r.Coverage))
	}
}

package exp

import (
	"fmt"

	"tracescale/internal/core"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
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

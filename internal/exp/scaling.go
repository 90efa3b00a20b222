package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tracescale/internal/circuits"
	"tracescale/internal/core"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/sigsel"
)

// ScalingRow times one selection run.
type ScalingRow struct {
	Approach string
	Problem  string
	Size     string
	Elapsed  time.Duration
}

// Scaling times application-level message selection against gate-level
// SRR selection as problem size grows — the paper's §1 scalability
// argument ("we could not apply existing SRR based methods on the
// OpenSPARC T2, since these methods are unable to scale") made
// quantitative. Application-level cost depends only on the scenario's
// flows; SRR cost grows superlinearly with the flip-flop count of the
// whole design.
func Scaling(seed int64) ([]ScalingRow, error) {
	var rows []ScalingRow

	for _, s := range opensparc.Scenarios() {
		ses, err := pipeline.For(s.Instances())
		if err != nil {
			return nil, err
		}
		// Time the raw selector on the session's evaluator — deliberately
		// bypassing the session's Result memo, which would otherwise report
		// a cache lookup instead of a selection.
		start := time.Now()
		if _, err := core.Select(ses.Evaluator(), core.Config{BufferWidth: BufferWidth}); err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{
			Approach: "app-level",
			Problem:  s.Name,
			Size:     fmt.Sprintf("%d messages, %d states", len(s.Universe()), ses.Evaluator().NumStates()),
			Elapsed:  time.Since(start),
		})
	}

	for _, ffs := range []int{64, 128, 256} {
		n, err := circuits.Generate(circuits.Params{FFs: ffs, ShiftFraction: 0.5}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := sigsel.SigSeT(n, sigsel.SigSeTConfig{Budget: 16, Cycles: 32, Seed: seed}); err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{
			Approach: "gate-level SRR",
			Problem:  "generated circuit",
			Size:     fmt.Sprintf("%d flip-flops", ffs),
			Elapsed:  time.Since(start),
		})
	}
	return rows, nil
}

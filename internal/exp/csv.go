package exp

import (
	"fmt"
	"io"
)

// The CSV writers export a figure's full data for plotting (`paperbench
// -figure N -csv`); the report's sections print their summaries.

// RenderCSVFig5 emits Figure 5's points as CSV.
func RenderCSVFig5(w io.Writer) error {
	series, err := Fig5()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "scenario,gain,coverage,width")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%s,%.6f,%.6f,%d\n", s.Scenario, p.Gain, p.Coverage, p.Width)
		}
	}
	return nil
}

// RenderCSVFig6 emits Figure 6's curves as CSV.
func RenderCSVFig6(w io.Writer, seed int64) error {
	curves, err := Fig6(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "case,step,message,pairs_left,causes_left")
	for _, c := range curves {
		for i, m := range c.Messages {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", c.CaseStudy, i+1, m, c.PairCurve[i], c.CauseCurve[i])
		}
	}
	return nil
}

// RenderCSVFig7 emits Figure 7's rows as CSV.
func RenderCSVFig7(w io.Writer, seed int64) error {
	rows, err := Fig7(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "case,plausible,pruned,fraction")
	for _, r := range rows {
		fmt.Fprintf(w, "%d,%d,%d,%.6f\n", r.CaseStudy, r.Plausible, r.Pruned, r.Fraction)
	}
	return nil
}

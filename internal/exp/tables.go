package exp

import (
	"fmt"
	"sort"
	"strings"

	"tracescale/internal/debugger"
	"tracescale/internal/inject"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/prng"
	"tracescale/internal/soc"
)

// Table1Row summarizes one usage scenario (Table 1).
type Table1Row struct {
	Scenario   string
	Flows      []string // annotated "name (states, messages)"
	IPs        []string
	RootCauses int
}

// Table1 reproduces Table 1: usage scenarios, participating flows
// (annotated with state/message counts), participating IPs, and potential
// root-cause counts.
func Table1() ([]Table1Row, error) {
	catalog := opensparc.Flows()
	var rows []Table1Row
	for _, s := range opensparc.Scenarios() {
		causes, err := opensparc.Causes(s.ID)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Scenario: s.Name, IPs: s.IPs, RootCauses: len(causes)}
		for _, fn := range s.FlowNames {
			f := catalog[fn]
			row.Flows = append(row.Flows, fmt.Sprintf("%s (%d, %d)", fn, f.NumStates(), f.NumMessages()))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2 reproduces Table 2: the representative injected bugs (catalog ids
// 1-4).
func Table2() []inject.Bug {
	var out []inject.Bug
	for _, id := range []int{1, 2, 3, 4} {
		b, err := opensparc.BugByID(id)
		if err != nil {
			panic("exp: representative bug missing: " + err.Error())
		}
		out = append(out, b)
	}
	return out
}

// Table3Row is one case-study row of Table 3.
type Table3Row struct {
	CaseStudy int
	Scenario  string
	// UtilWP/UtilWoP: trace buffer utilization with/without packing.
	UtilWP, UtilWoP float64
	// CovWP/CovWoP: flow specification coverage (Definition 7).
	CovWP, CovWoP float64
	// LocWP/LocWoP: path localization (fraction of interleaved-flow
	// executions remaining candidates).
	LocWP, LocWoP float64
}

// Table3 reproduces Table 3: trace buffer utilization, flow specification
// coverage, and path localization for the five case studies, with and
// without packing, assuming a 32-bit trace buffer.
func Table3(seed int64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, cs := range opensparc.CaseStudies() {
		run, err := RunCase(cs, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			CaseStudy: cs.ID,
			Scenario:  cs.Scenario.Name,
			UtilWP:    run.Selection.WP.Utilization,
			UtilWoP:   run.Selection.WoP.Utilization,
			CovWP:     run.Selection.WP.Coverage,
			CovWoP:    run.Selection.WoP.Coverage,
			LocWP:     run.LocWP,
			LocWoP:    run.LocWoP,
		})
	}
	return rows, nil
}

// Table5Row is one message row of Table 5.
type Table5Row struct {
	Msg           string // m1..m16 label
	Name          string
	AffectingBugs []int
	BugCoverage   float64 // affecting bugs / total injected bugs
	Importance    float64 // 1 / BugCoverage (0 when unaffected)
	Selected      bool
	Scenarios     []int // usage scenarios whose selection traces it
}

// Table5 reproduces Table 5: per message, the bugs affecting it (a message
// is affected when its value or presence in the buggy execution differs
// from the bug-free design), its bug coverage and importance, and whether
// the selection traces it in some usage scenario. Each of the 14 catalog
// bugs is injected individually into a workload exercising all five flows.
func Table5(seed int64) ([]Table5Row, error) {
	// Workload: every flow, so every bug can manifest.
	var launches []soc.Launch
	for i, f := range []string{
		opensparc.FlowPIOR, opensparc.FlowPIOW, opensparc.FlowNCUU,
		opensparc.FlowNCUD, opensparc.FlowMon,
	} {
		launches = append(launches, soc.Repeat(opensparc.Flows()[f], InstancesPerFlow, 1,
			uint64(i*7), launchStride)...)
	}
	sc := soc.Scenario{Name: "all-flows", Launches: launches}
	// The golden run and every buggy run read one stream of seed.
	cfg := soc.Config{Seed: seed, Obs: obs.Default, Stream: prng.New(seed)}
	golden, err := soc.Run(sc, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: table 5 golden: %w", err)
	}
	allNames := make(map[string]bool)
	for _, m := range opensparc.Messages() {
		allNames[m.Name] = true
	}

	affecting := make(map[string][]int)
	bugs := opensparc.Bugs()
	for _, b := range bugs {
		cfg.Injectors = inject.Injectors(b)
		buggy, err := soc.Run(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: table 5 bug %d: %w", b.ID, err)
		}
		obs := debugger.Observe(golden, buggy, allNames)
		for _, name := range obs.AffectedMessages() {
			affecting[name] = append(affecting[name], b.ID)
		}
	}

	// Which messages does each scenario's (with-packing) selection trace?
	selectedIn := make(map[string][]int)
	for _, s := range opensparc.Scenarios() {
		sel, err := SelectScenario(s)
		if err != nil {
			return nil, err
		}
		for _, n := range sel.WP.TracedNames() {
			selectedIn[n] = append(selectedIn[n], s.ID)
		}
	}

	var rows []Table5Row
	for i, m := range opensparc.Messages() {
		bugsFor := affecting[m.Name]
		sort.Ints(bugsFor)
		row := Table5Row{
			Msg:           fmt.Sprintf("m%d", i+1),
			Name:          m.Name,
			AffectingBugs: bugsFor,
			BugCoverage:   float64(len(bugsFor)) / float64(len(bugs)),
			Selected:      len(selectedIn[m.Name]) > 0,
			Scenarios:     selectedIn[m.Name],
		}
		if row.BugCoverage > 0 {
			row.Importance = 1 / row.BugCoverage
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table6Row is one case-study row of Table 6.
type Table6Row struct {
	CaseStudy            int
	Flows                int
	LegalPairs           int
	PairsInvestigated    int
	MessagesInvestigated int // trace-file entries behind the investigation
	RootCausedFunctions  []string
	PlausibleCauses      int
	TotalCauses          int
	GroundTruthSurvived  bool
	PrunedFraction       float64
}

// Table6 reproduces Table 6: diagnosed root causes and debugging
// statistics for the five case studies.
func Table6(seed int64) ([]Table6Row, error) {
	var rows []Table6Row
	for _, cs := range opensparc.CaseStudies() {
		run, err := RunCase(cs, seed)
		if err != nil {
			return nil, err
		}
		row := Table6Row{
			CaseStudy:            cs.ID,
			Flows:                len(cs.Scenario.FlowNames),
			LegalPairs:           run.Report.LegalPairs,
			PairsInvestigated:    run.Report.PairsInvestigated,
			MessagesInvestigated: run.Report.EntriesInvestigated,
			RootCausedFunctions:  run.Report.RootCausedFunctions(),
			PlausibleCauses:      len(run.Report.Plausible),
			TotalCauses:          run.Report.TotalCauses,
			PrunedFraction:       run.Report.PrunedFraction,
		}
		for _, c := range run.Report.Plausible {
			if c.ID == cs.GroundTruth {
				row.GroundTruthSurvived = true
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table7Row pairs a potential cause with its implication (Table 7).
type Table7Row struct {
	Cause       string
	Implication string
}

// Table7 reproduces Table 7 for one case study: the selected trace
// messages of its scenario and the potential root causes with their
// implications.
func Table7(caseID int) (selected []string, rows []Table7Row, err error) {
	cs, err := opensparc.CaseStudyByID(caseID)
	if err != nil {
		return nil, nil, err
	}
	sel, err := SelectScenario(cs.Scenario)
	if err != nil {
		return nil, nil, err
	}
	selected = sel.WP.TracedNames()
	causes, err := opensparc.Causes(cs.Scenario.ID)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range causes {
		rows = append(rows, Table7Row{Cause: c.Function, Implication: c.Implication})
	}
	return selected, rows, nil
}

// FormatPercent renders a fraction as the paper's percent notation.
func FormatPercent(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", f*100), "0"), ".") + "%"
}

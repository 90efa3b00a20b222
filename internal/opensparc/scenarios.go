package opensparc

import (
	"fmt"

	"tracescale/internal/flow"
	"tracescale/internal/soc"
)

// Scenario is one of the paper's Table-1 usage scenarios: the set of
// protocol flows a usage pattern activates, with the participating IPs and
// the catalog of potential architecture-level root causes.
type Scenario struct {
	ID        int
	Name      string
	FlowNames []string
	IPs       []string
}

// Scenarios returns the three usage scenarios of Table 1.
//
//	Scenario 1: PIOR, PIOW, Mon        (NCU, DMU, SIU + PEU in our model)
//	Scenario 2: NCUU, NCUD, Mon        (NCU, MCU, CCX + DMU/SIU carry Mondo)
//	Scenario 3: PIOR, PIOW, NCUU, NCUD (NCU, MCU, DMU, SIU)
func Scenarios() []Scenario {
	return []Scenario{
		{ID: 1, Name: "Scenario 1", FlowNames: []string{FlowPIOR, FlowPIOW, FlowMon},
			IPs: []string{NCU, DMU, SIU, PEU}},
		{ID: 2, Name: "Scenario 2", FlowNames: []string{FlowNCUU, FlowNCUD, FlowMon},
			IPs: []string{NCU, MCU, CCX, DMU, SIU}},
		{ID: 3, Name: "Scenario 3", FlowNames: []string{FlowPIOR, FlowPIOW, FlowNCUU, FlowNCUD},
			IPs: []string{NCU, MCU, DMU, SIU, PEU, CCX}},
	}
}

// ScenarioByID returns the usage scenario with the given id (1-3).
func ScenarioByID(id int) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.ID == id {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("opensparc: no usage scenario %d", id)
}

// Flows returns the scenario's flow DAGs in declaration order.
func (s Scenario) Flows() []*flow.Flow {
	catalog := Flows()
	out := make([]*flow.Flow, len(s.FlowNames))
	for i, n := range s.FlowNames {
		out[i] = catalog[n]
	}
	return out
}

// Universe returns the distinct messages of the scenario's flows in
// first-appearance order.
func (s Scenario) Universe() []flow.Message {
	seen := make(map[string]bool)
	var out []flow.Message
	for _, f := range s.Flows() {
		for _, m := range f.Messages() {
			if !seen[m.Name] {
				seen[m.Name] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// Instances returns the scenario's analysis instance set: one legally
// indexed instance (index 1) per participating flow. This is the set the
// selection pipeline fingerprints and interleaves.
func (s Scenario) Instances() []flow.Instance {
	flows := s.Flows()
	insts := make([]flow.Instance, len(flows))
	for i, f := range flows {
		insts[i] = flow.Instance{Flow: f, Index: 1}
	}
	return insts
}

// Launches builds a long-running simulation workload: n indexed instances
// of each participating flow. The flows' first instances start within a
// cycle of each other so they genuinely race (the interleaving the
// analysis product models); subsequent instances follow every stride
// cycles.
func (s Scenario) Launches(n int, stride uint64) []soc.Launch {
	var out []soc.Launch
	for fi, f := range s.Flows() {
		out = append(out, soc.Repeat(f, n, 1, uint64(fi), stride)...)
	}
	return out
}

// CaseStudy is one of the paper's five buggy T2 designs (Table 3/6 rows):
// a usage scenario with one manifesting injected bug and its ground-truth
// root cause.
type CaseStudy struct {
	ID       int
	Scenario Scenario
	// BugID indexes into Bugs(): the fault this buggy design carries.
	BugID int
	// GroundTruth is the cause id (in the scenario's cause catalog) that
	// debugging must not eliminate.
	GroundTruth int
}

// CaseStudies returns the five debugging case studies, mapped to usage
// scenarios exactly as in Table 3 (cases 1-2 on Scenario 1, cases 3-4 on
// Scenario 2, case 5 on Scenario 3) with root causes per Table 6.
func CaseStudies() []CaseStudy {
	ss := Scenarios()
	return []CaseStudy{
		// Table 6 row 1: "An interrupt was never generated by DMU due to
		// wrong interrupt generation logic."
		{ID: 1, Scenario: ss[0], BugID: 33, GroundTruth: 103},
		// Row 2: "Wrong interrupt decoding logic in NCU / Corrupted
		// interrupt handling table in NCU."
		{ID: 2, Scenario: ss[0], BugID: 29, GroundTruth: 108},
		// Row 3: "Malformed CPU request from Cache Crossbar to NCU /
		// Erroneous CPU request decoding logic of NCU."
		{ID: 3, Scenario: ss[1], BugID: 18, GroundTruth: 201},
		// Row 4: "Erroneous interrupt deque logic after interrupt is
		// serviced."
		{ID: 4, Scenario: ss[1], BugID: 12, GroundTruth: 208},
		// Row 5: "Erroneous decoding logic of CPU requests in memory
		// controller."
		{ID: 5, Scenario: ss[2], BugID: 24, GroundTruth: 307},
	}
}

// CaseStudyByID returns the case study with the given id (1-5).
func CaseStudyByID(id int) (CaseStudy, error) {
	for _, cs := range CaseStudies() {
		if cs.ID == id {
			return cs, nil
		}
	}
	return CaseStudy{}, fmt.Errorf("opensparc: no case study %d", id)
}

// Bug returns the case study's injected bug.
func (cs CaseStudy) Bug() Bug {
	b, err := BugByID(cs.BugID)
	if err != nil {
		panic("opensparc: case study references unknown bug: " + err.Error())
	}
	return b
}

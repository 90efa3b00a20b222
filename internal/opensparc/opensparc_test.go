package opensparc

import (
	"testing"

	"tracescale/internal/core"
	"tracescale/internal/interleave"
	"tracescale/internal/soc"
)

// Table 1 annotates each flow with (number of states, number of messages).
func TestFlowShapesMatchTable1(t *testing.T) {
	cases := []struct {
		name         string
		states, msgs int
	}{
		{FlowPIOR, 6, 5},
		{FlowPIOW, 3, 2},
		{FlowNCUU, 4, 3},
		{FlowNCUD, 3, 2},
		{FlowMon, 6, 5},
	}
	flows := Flows()
	for _, tc := range cases {
		f := flows[tc.name]
		if f == nil {
			t.Fatalf("flow %s missing", tc.name)
		}
		if f.NumStates() != tc.states || f.NumMessages() != tc.msgs {
			t.Errorf("%s = (%d states, %d messages), want (%d, %d)",
				tc.name, f.NumStates(), f.NumMessages(), tc.states, tc.msgs)
		}
	}
}

func TestMessageCatalog(t *testing.T) {
	msgs := Messages()
	if len(msgs) != 16 {
		t.Fatalf("catalog has %d messages, want 16 (Table 5 rows m1..m16)", len(msgs))
	}
	seen := make(map[string]bool)
	ips := make(map[string]bool)
	for _, ip := range IPs() {
		ips[ip] = true
	}
	over32 := 0
	for _, m := range msgs {
		if seen[m.Name] {
			t.Errorf("duplicate message %q", m.Name)
		}
		seen[m.Name] = true
		if m.Width < 1 {
			t.Errorf("%s has width %d", m.Name, m.Width)
		}
		if !ips[m.Src] || !ips[m.Dst] {
			t.Errorf("%s has unknown endpoint %s->%s", m.Name, m.Src, m.Dst)
		}
		if m.Width > 32 {
			over32++
		}
	}
	if over32 != 2 {
		t.Errorf("%d messages wider than the 32-bit buffer, want 2 (the paper's m9 and m15)", over32)
	}
	// The paper quotes dmusiidata as 20 bits with a 6-bit cputhreadid
	// subgroup.
	m := messageByName(MsgDMUSIIData)
	if m.Width != 20 {
		t.Errorf("dmusiidata width = %d, want 20", m.Width)
	}
	found := false
	for _, g := range m.Groups {
		if g.Name == GrpCPUThreadID && g.Width == 6 {
			found = true
		}
	}
	if !found {
		t.Error("dmusiidata lacks the 6-bit cputhreadid subgroup")
	}
}

func TestMessageByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	messageByName("nope")
}

func TestScenarios(t *testing.T) {
	ss := Scenarios()
	if len(ss) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(ss))
	}
	wantFlows := [][]string{
		{FlowPIOR, FlowPIOW, FlowMon},
		{FlowNCUU, FlowNCUD, FlowMon},
		{FlowPIOR, FlowPIOW, FlowNCUU, FlowNCUD},
	}
	for i, s := range ss {
		if s.ID != i+1 {
			t.Errorf("scenario %d has ID %d", i, s.ID)
		}
		if len(s.FlowNames) != len(wantFlows[i]) {
			t.Errorf("scenario %d flows = %v", i+1, s.FlowNames)
			continue
		}
		for j, fn := range wantFlows[i] {
			if s.FlowNames[j] != fn {
				t.Errorf("scenario %d flow %d = %s, want %s", i+1, j, s.FlowNames[j], fn)
			}
		}
	}
	if _, err := ScenarioByID(2); err != nil {
		t.Error(err)
	}
	if _, err := ScenarioByID(9); err == nil {
		t.Error("scenario 9 should not exist")
	}
}

func TestScenarioUniverse(t *testing.T) {
	s1, _ := ScenarioByID(1)
	u := s1.Universe()
	// PIOR(5) + PIOW(2) + Mon(5) with siincu shared = 11 distinct.
	if len(u) != 11 {
		t.Errorf("scenario 1 universe = %d messages, want 11", len(u))
	}
	s3, _ := ScenarioByID(3)
	if got := len(s3.Universe()); got != 12 {
		t.Errorf("scenario 3 universe = %d messages, want 12", got)
	}
}

func TestScenarioInterleavings(t *testing.T) {
	wantStates := map[int]int{1: 6 * 3 * 6, 2: 4 * 3 * 6, 3: 6 * 3 * 4 * 3}
	for _, s := range Scenarios() {
		p, err := interleave.New(s.Instances())
		if err != nil {
			t.Fatalf("scenario %d: %v", s.ID, err)
		}
		// Only Mon has an atomic state, so no product state is illegal and
		// the full grid is reachable.
		if p.NumStates() != wantStates[s.ID] {
			t.Errorf("scenario %d product = %d states, want %d", s.ID, p.NumStates(), wantStates[s.ID])
		}
		if p.TotalPaths().Sign() <= 0 {
			t.Errorf("scenario %d has no executions", s.ID)
		}
	}
}

// The scenario interleavings must support message selection with the
// paper's 32-bit trace buffer at high utilization.
func TestScenarioSelection32Bits(t *testing.T) {
	for _, s := range Scenarios() {
		p, err := interleave.New(s.Instances())
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := core.Select(e, core.Config{BufferWidth: 32})
		if err != nil {
			t.Fatal(err)
		}
		wop, err := core.Select(e, core.Config{BufferWidth: 32, DisablePacking: true})
		if err != nil {
			t.Fatal(err)
		}
		if wp.Utilization < wop.Utilization {
			t.Errorf("scenario %d: packing lowered utilization %g -> %g", s.ID, wop.Utilization, wp.Utilization)
		}
		if wp.Coverage < wop.Coverage {
			t.Errorf("scenario %d: packing lowered coverage %g -> %g", s.ID, wop.Coverage, wp.Coverage)
		}
		if wp.Utilization < 0.9 {
			t.Errorf("scenario %d: utilization with packing = %g, want >= 0.9", s.ID, wp.Utilization)
		}
		if wp.Width > 32 {
			t.Errorf("scenario %d: width %d exceeds buffer", s.ID, wp.Width)
		}
	}
}

func TestBugCatalog(t *testing.T) {
	bugs := Bugs()
	if len(bugs) != 14 {
		t.Fatalf("catalog has %d bugs, want 14", len(bugs))
	}
	ids := make(map[int]bool)
	ipSet := make(map[string]bool)
	valid := make(map[string]bool)
	for _, m := range Messages() {
		valid[m.Name] = true
	}
	for _, b := range bugs {
		if ids[b.ID] {
			t.Errorf("duplicate bug id %d", b.ID)
		}
		ids[b.ID] = true
		ipSet[b.IP] = true
		if !valid[b.Target] {
			t.Errorf("bug %d targets unknown message %q", b.ID, b.Target)
		}
		if b.Category != "Control" && b.Category != "Data" {
			t.Errorf("bug %d category %q", b.ID, b.Category)
		}
		if b.Depth < 3 || b.Depth > 4 {
			t.Errorf("bug %d depth %d outside Table-2 range", b.ID, b.Depth)
		}
	}
	if len(ipSet) != 5 {
		t.Errorf("bugs span %d IPs, want 5", len(ipSet))
	}
	if _, err := BugByID(33); err != nil {
		t.Error(err)
	}
	if _, err := BugByID(999); err == nil {
		t.Error("bug 999 should not exist")
	}
}

func TestCauseCatalogs(t *testing.T) {
	wantCount := map[int]int{1: 9, 2: 8, 3: 9} // Table 1 column 8
	valid := make(map[string]bool)
	for _, m := range Messages() {
		valid[m.Name] = true
	}
	for id, want := range wantCount {
		causes, err := Causes(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(causes) != want {
			t.Errorf("scenario %d has %d causes, want %d", id, len(causes), want)
		}
		seen := make(map[int]bool)
		for _, c := range causes {
			if seen[c.ID] {
				t.Errorf("duplicate cause %d", c.ID)
			}
			seen[c.ID] = true
			for n := range c.Signature {
				if !valid[n] {
					t.Errorf("cause %d references unknown message %q", c.ID, n)
				}
			}
			for n := range c.GlobalSignature {
				if !valid[n] {
					t.Errorf("cause %d global-references unknown message %q", c.ID, n)
				}
			}
		}
	}
	if _, err := Causes(4); err == nil {
		t.Error("scenario 4 causes should not exist")
	}
}

func TestCaseStudies(t *testing.T) {
	css := CaseStudies()
	if len(css) != 5 {
		t.Fatalf("case studies = %d, want 5", len(css))
	}
	wantScenario := []int{1, 1, 2, 2, 3} // Table 3's mapping
	for i, cs := range css {
		if cs.Scenario.ID != wantScenario[i] {
			t.Errorf("case %d on scenario %d, want %d", cs.ID, cs.Scenario.ID, wantScenario[i])
		}
		b := cs.Bug() // panics if missing
		if b.ID != cs.BugID {
			t.Errorf("case %d bug = %d", cs.ID, b.ID)
		}
		causes, err := Causes(cs.Scenario.ID)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, c := range causes {
			if c.ID == cs.GroundTruth {
				found = true
				// The ground-truth cause must sit in the buggy IP.
				if c.IP != b.IP {
					t.Errorf("case %d: ground truth cause %d in %s but bug %d in %s",
						cs.ID, c.ID, c.IP, b.ID, b.IP)
				}
			}
		}
		if !found {
			t.Errorf("case %d ground truth %d not in scenario %d catalog", cs.ID, cs.GroundTruth, cs.Scenario.ID)
		}
	}
	if _, err := CaseStudyByID(3); err != nil {
		t.Error(err)
	}
	if _, err := CaseStudyByID(6); err == nil {
		t.Error("case study 6 should not exist")
	}
}

func TestScenarioLaunchesRunClean(t *testing.T) {
	for _, s := range Scenarios() {
		sc := soc.Scenario{Name: s.Name, Launches: s.Launches(10, 20)}
		res, err := soc.Run(sc, soc.Config{Seed: 1})
		if err != nil {
			t.Fatalf("scenario %d: %v", s.ID, err)
		}
		if !res.Passed() {
			t.Errorf("scenario %d golden run failed: %v", s.ID, res.Symptoms)
		}
		if res.Completed != 10*len(s.FlowNames) {
			t.Errorf("scenario %d completed %d of %d", s.ID, res.Completed, 10*len(s.FlowNames))
		}
	}
}

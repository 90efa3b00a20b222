package exp

import (
	"bytes"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/opensparc"
	"tracescale/internal/trace"
)

// The post-silicon workflow: debugging from trace-buffer contents alone
// must reach the same plausible-cause set as debugging from full event
// streams, for every case study.
func TestDebugFromTracesMatchesEventDebug(t *testing.T) {
	for _, cs := range opensparc.CaseStudies() {
		run, err := RunCase(cs, seed)
		if err != nil {
			t.Fatalf("case %d: %v", cs.ID, err)
		}
		rep, err := DebugFromTraces(run, seed)
		if err != nil {
			t.Fatalf("case %d: %v", cs.ID, err)
		}
		if len(rep.Plausible) != len(run.Report.Plausible) {
			t.Errorf("case %d: trace-file debug found %d plausible, event debug %d",
				cs.ID, len(rep.Plausible), len(run.Report.Plausible))
			continue
		}
		for i, c := range rep.Plausible {
			if c.ID != run.Report.Plausible[i].ID {
				t.Errorf("case %d: plausible[%d] = %d vs %d", cs.ID, i, c.ID, run.Report.Plausible[i].ID)
			}
		}
		gt := false
		for _, c := range rep.Plausible {
			if c.ID == cs.GroundTruth {
				gt = true
			}
		}
		if !gt {
			t.Errorf("case %d: ground truth lost in trace-file workflow", cs.ID)
		}
	}
}

// Trace files round-trip through the textual format without changing the
// debugging outcome.
func TestTraceFileFormatRoundTrip(t *testing.T) {
	cs, err := opensparc.CaseStudyByID(1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunCase(cs, seed)
	if err != nil {
		t.Fatal(err)
	}
	golden, buggy, err := TraceFiles(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 || len(buggy) == 0 {
		t.Fatalf("empty traces: %d golden, %d buggy", len(golden), len(buggy))
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, buggy); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(buggy) {
		t.Fatalf("entries = %d, want %d", len(back), len(buggy))
	}
	for i := range buggy {
		if back[i] != buggy[i] {
			t.Fatalf("entry %d changed: %+v vs %+v", i, back[i], buggy[i])
		}
	}
	// Summary statistics describe the buggy run.
	st := trace.Summarize(buggy)
	if st.Entries != len(buggy) || st.Span() == 0 {
		t.Errorf("stats = %+v", st)
	}
	// The failing Mon instance's projection must lack reqtot (bug 33
	// drops it).
	for _, m := range trace.Project(buggy, run.Obs.FocusIndex) {
		if m.Name == "reqtot" {
			t.Error("dropped reqtot appears in the failing instance's trace")
		}
	}
}

func TestCapturePlanSubgroupOffsets(t *testing.T) {
	sel, err := SelectScenario(opensparc.Scenarios()[0])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CapturePlan(sel)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario 1 packs dmusiidata.intvec: offset = width of cputhreadid
	// (declared first), bits = 7.
	e, ok := plan.Capture(flow.IndexedMsg{Name: opensparc.MsgDMUSIIData, Index: 1}, 0x7F<<6)
	if !ok {
		t.Fatal("plan does not observe dmusiidata")
	}
	if e.Bits != 7 || e.Data != 0x7F {
		t.Errorf("dmusiidata window = %0*b (%d bits), want intvec's 7 bits at offset 6", e.Bits, e.Data, e.Bits)
	}
	if got := plan.TotalBits(); got != sel.WP.Width {
		t.Errorf("plan bits = %d, want %d", got, sel.WP.Width)
	}
}

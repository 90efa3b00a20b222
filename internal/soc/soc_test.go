package soc

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/prng"
	"tracescale/internal/tbuf"
)

type funcInjector func(ev Event, rng *rand.Rand) Outcome

func (f funcInjector) Apply(ev Event, rng *rand.Rand) Outcome { return f(ev, rng) }

func ccScenario(n int) Scenario {
	f := flow.CacheCoherence()
	return Scenario{Name: "cc", Launches: Repeat(f, n, 1, 0, 3)}
}

func TestRunCleanCompletes(t *testing.T) {
	res, err := Run(ccScenario(4), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("symptoms = %v, want none", res.Symptoms)
	}
	if res.Completed != 4 || res.Wedged != 0 {
		t.Errorf("Completed/Wedged = %d/%d, want 4/0", res.Completed, res.Wedged)
	}
	if len(res.Events) != 12 {
		t.Errorf("events = %d, want 12 (3 per instance)", len(res.Events))
	}
	if res.EndCycle == 0 {
		t.Error("EndCycle = 0")
	}
	// Sequence numbers are dense and increasing.
	for i, ev := range res.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(ccScenario(6), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ccScenario(6), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// While an instance occupies its atomic state (after GntE, before Ack) no
// other instance may emit: every GntE is immediately followed in the event
// order by the same instance's Ack.
func TestAtomicMutexSerializesGrant(t *testing.T) {
	res, err := Run(ccScenario(8), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range res.Events {
		if ev.Msg.Name != "GntE" {
			continue
		}
		if i+1 >= len(res.Events) {
			t.Fatalf("run ended inside atomic section of instance %d", ev.Msg.Index)
		}
		next := res.Events[i+1]
		if next.Msg.Name != "Ack" || next.Msg.Index != ev.Msg.Index {
			t.Fatalf("event after %v is %v, want %d:Ack", ev.Msg, next.Msg, ev.Msg.Index)
		}
	}
}

func TestOccurrenceNumbering(t *testing.T) {
	res, err := Run(ccScenario(3), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		// Each indexed message fires exactly once per instance here.
		if ev.Occurrence != 0 {
			t.Errorf("%v occurrence = %d, want 0", ev.Msg, ev.Occurrence)
		}
	}
}

func TestDataGenPureFunction(t *testing.T) {
	m := flow.Message{Name: "x", Width: 20}
	a := DefaultDataGen(m, 1, 2, 99)
	b := DefaultDataGen(m, 1, 2, 99)
	if a != b {
		t.Error("DefaultDataGen not deterministic")
	}
	if a >= 1<<20 {
		t.Errorf("payload %d exceeds width mask", a)
	}
	if DefaultDataGen(m, 1, 3, 99) == a && DefaultDataGen(m, 2, 2, 99) == a {
		t.Error("payloads suspiciously identical across coordinates")
	}
}

// poisonMask must reproduce the fmt and hash/fnv form of its hash, which
// the corrupt-propagation goldens depend on.
func TestPoisonMaskMatchesFmtReference(t *testing.T) {
	f := flow.CacheCoherence()
	for index := -2; index <= 40; index++ {
		for _, seed := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
			h := fnv.New64a()
			fmt.Fprintf(h, "poison/%s/%d/%d", f.Name(), index, seed)
			full := h.Sum64() | 1
			for _, w := range []int{1, 7, 32, 63, 64} {
				want := full
				if w < 64 {
					want &= (uint64(1) << uint(w)) - 1
					if want == 0 {
						want = 1
					}
				}
				if got := poisonMask(f, index, w, seed); got != want {
					t.Fatalf("poisonMask(index %d, width %d, seed %d) = %#x, want %#x", index, w, seed, got, want)
				}
			}
		}
	}
}

func TestDropInjectorWedgesAndHangs(t *testing.T) {
	drop := funcInjector(func(ev Event, _ *rand.Rand) Outcome {
		if ev.Msg.Name == "GntE" && ev.Msg.Index == 2 {
			return Outcome{Drop: true, Bug: 11}
		}
		return Outcome{}
	})
	res, err := Run(ccScenario(3), Config{Seed: 5, Injectors: []Injector{drop}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("run should fail")
	}
	if res.Wedged != 1 || res.Completed != 2 {
		t.Errorf("Wedged/Completed = %d/%d, want 1/2", res.Wedged, res.Completed)
	}
	var hang *Symptom
	for i := range res.Symptoms {
		if res.Symptoms[i].Kind == Hang {
			hang = &res.Symptoms[i]
		}
	}
	if hang == nil {
		t.Fatalf("no hang symptom in %v", res.Symptoms)
	}
	if hang.Index != 2 || hang.Msg.Name != "GntE" {
		t.Errorf("hang = %+v, want instance 2 at GntE", hang)
	}
	if !strings.Contains(hang.String(), "hang") {
		t.Errorf("String = %q", hang.String())
	}
	// The dropped event exists but is not delivered.
	found := false
	for _, ev := range res.Events {
		if ev.Dropped {
			found = true
			if ev.Bug != 11 {
				t.Errorf("dropped event bug id = %d, want 11", ev.Bug)
			}
		}
	}
	if !found {
		t.Error("no dropped event recorded")
	}
	if len(res.Delivered()) != len(res.Events)-1 {
		t.Errorf("Delivered = %d, want %d", len(res.Delivered()), len(res.Events)-1)
	}
}

func TestCorruptInjectorCausesBadTrap(t *testing.T) {
	corrupt := funcInjector(func(ev Event, _ *rand.Rand) Outcome {
		if ev.Msg.Name == "ReqE" && ev.Msg.Index == 1 {
			return Outcome{XorMask: 1, Bug: 4}
		}
		return Outcome{}
	})
	res, err := Run(ccScenario(2), Config{Seed: 5, Injectors: []Injector{corrupt}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Errorf("Completed = %d, want 2 (corruption does not stall)", res.Completed)
	}
	if len(res.Symptoms) != 1 || res.Symptoms[0].Kind != BadTrap || res.Symptoms[0].Index != 1 {
		t.Fatalf("symptoms = %v, want one bad-trap on instance 1", res.Symptoms)
	}
	if !strings.Contains(res.Symptoms[0].String(), "bad-trap") {
		t.Errorf("String = %q", res.Symptoms[0].String())
	}
}

func TestGoldenVsBuggyPayloadsAgreeWhenUnaffected(t *testing.T) {
	corrupt := funcInjector(func(ev Event, _ *rand.Rand) Outcome {
		if ev.Msg.Name == "GntE" {
			return Outcome{XorMask: 1}
		}
		return Outcome{}
	})
	golden, err := Run(ccScenario(4), Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	buggy, err := Run(ccScenario(4), Config{Seed: 9, Injectors: []Injector{corrupt}})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		m   flow.IndexedMsg
		occ int
	}
	gold := make(map[key]uint64)
	for _, ev := range golden.Events {
		gold[key{ev.Msg, ev.Occurrence}] = ev.Data
	}
	for _, ev := range buggy.Events {
		want, ok := gold[key{ev.Msg, ev.Occurrence}]
		if !ok {
			t.Fatalf("buggy event %v missing from golden", ev.Msg)
		}
		switch ev.Msg.Name {
		case "GntE":
			if ev.Data == want {
				t.Errorf("%v not corrupted", ev.Msg)
			}
		case "Ack":
			// Downstream of the corruption within the same instance:
			// poisoned state propagates.
			if ev.Data == want {
				t.Errorf("%v not poisoned though downstream of corruption", ev.Msg)
			}
			if !ev.Corrupted {
				t.Errorf("%v not flagged corrupted", ev.Msg)
			}
		default: // ReqE precedes the corruption
			if ev.Data != want {
				t.Errorf("%v payload differs though unaffected", ev.Msg)
			}
		}
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	f := flow.CacheCoherence()
	sc := Scenario{Name: "late", Launches: []Launch{{Flow: f, Index: 1, Start: 1000}}}
	res, err := Run(sc, Config{Seed: 1, MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || res.Completed != 0 {
		t.Errorf("aborted run should hang: %+v", res)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Scenario{}, Config{}); err == nil {
		t.Error("empty scenario should fail")
	}
	f := flow.CacheCoherence()
	sc := Scenario{Launches: []Launch{{Flow: f, Index: 1}, {Flow: f, Index: 1}}}
	if _, err := Run(sc, Config{}); err == nil {
		t.Error("illegal indexing should fail")
	}
	// Legality is decided by flow name: two distinct flows named alike
	// may not share an index either, wherever they sit in launch order.
	g := flow.CacheCoherence()
	sc = Scenario{Launches: []Launch{{Flow: f, Index: 1}, {Flow: f, Index: 2}, {Flow: g, Index: 1}}}
	if _, err := Run(sc, Config{}); err == nil || !strings.Contains(err.Error(), "not legally indexed") {
		t.Errorf("two %q flows at index 1: err = %v, want the illegal-indexing error", f.Name(), err)
	}
	// A stream replays its own seed's draws; Seed still drives the payloads.
	if _, err := Run(ccScenario(2), Config{Seed: 3, Stream: prng.New(4)}); err == nil || !strings.Contains(err.Error(), "stream seed 4") {
		t.Errorf("stream seeded 4 for a seed-3 run: err = %v, want the stream-seed error", err)
	}
}

func TestRepeat(t *testing.T) {
	f := flow.CacheCoherence()
	ls := Repeat(f, 3, 5, 10, 7)
	if len(ls) != 3 {
		t.Fatalf("len = %d", len(ls))
	}
	if ls[2].Index != 7 || ls[2].Start != 24 {
		t.Errorf("ls[2] = %+v", ls[2])
	}
}

func TestMonitorCapturesPlannedMessagesOnly(t *testing.T) {
	res, err := Run(ccScenario(3), Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tbuf.NewCapturePlan([]tbuf.Rule{
		{Message: "ReqE", Width: 1, Bits: 1},
		{Message: "GntE", Width: 1, Bits: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	mon := NewMonitor(plan, tbuf.New(2, 64), &sb)
	if err := mon.Consume(res.Events); err != nil {
		t.Fatal(err)
	}
	if mon.Captured() != 6 {
		t.Errorf("Captured = %d, want 6 (ReqE+GntE per instance)", mon.Captured())
	}
	for _, e := range mon.Buffer().Entries() {
		if e.Msg.Name == "Ack" {
			t.Errorf("Ack captured though unplanned")
		}
	}
	if !strings.Contains(sb.String(), "ReqE") {
		t.Error("trace file missing ReqE lines")
	}
}

func TestMonitorIgnoresDroppedEvents(t *testing.T) {
	plan, err := tbuf.NewCapturePlan([]tbuf.Rule{{Message: "ReqE", Width: 1, Bits: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(plan, tbuf.New(1, 8), nil)
	if err := mon.Observe(Event{Msg: flow.IndexedMsg{Name: "ReqE", Index: 1}, Dropped: true}); err != nil {
		t.Fatal(err)
	}
	if mon.Captured() != 0 {
		t.Error("dropped event captured")
	}
}

func TestSymptomKindString(t *testing.T) {
	if Hang.String() != "hang" || BadTrap.String() != "bad-trap" {
		t.Error("SymptomKind strings wrong")
	}
	if !strings.Contains(SymptomKind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

// An instance wedged inside an atomic state holds the global mutex
// forever: the run must detect the deadlock and hang everyone rather than
// spin.
func TestWedgeInsideAtomicStateDeadlocksRun(t *testing.T) {
	dropAck := funcInjector(func(ev Event, _ *rand.Rand) Outcome {
		if ev.Msg.Name == "Ack" && ev.Msg.Index == 1 {
			return Outcome{Drop: true, Bug: 1}
		}
		return Outcome{}
	})
	res, err := Run(ccScenario(3), Config{Seed: 4, Injectors: []Injector{dropAck}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("deadlocked run passed")
	}
	// Instance 1 wedges in GntW (atomic): nobody else can ever move, so
	// any instance that hadn't finished hangs too.
	if res.Completed == 3 {
		t.Error("all instances completed despite a held atomic state")
	}
	hangs := 0
	for _, s := range res.Symptoms {
		if s.Kind == Hang {
			hangs++
		}
	}
	if hangs != 3-res.Completed {
		t.Errorf("hangs = %d, want %d", hangs, 3-res.Completed)
	}
	// The run must terminate promptly (deadlock detection), not at
	// MaxCycles.
	if res.EndCycle >= 10_000_000 {
		t.Errorf("run spun to MaxCycles (%d)", res.EndCycle)
	}
}

func TestWriteTimeline(t *testing.T) {
	drop := funcInjector(func(ev Event, _ *rand.Rand) Outcome {
		if ev.Msg.Name == "GntE" && ev.Msg.Index == 2 {
			return Outcome{Drop: true}
		}
		return Outcome{}
	})
	res, err := Run(ccScenario(3), Config{Seed: 5, Injectors: []Injector{drop}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTimeline(&sb, res, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"timeline:", "1->Dir", "Dir->1", "x", "symptoms: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Truncation cap.
	sb.Reset()
	if err := WriteTimeline(&sb, res, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3 of") {
		t.Errorf("timeline cap not applied:\n%s", sb.String())
	}
	// Clean run renders "symptoms: none".
	clean, err := Run(ccScenario(2), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteTimeline(&sb, clean, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "symptoms: none") {
		t.Errorf("clean timeline:\n%s", sb.String())
	}
}

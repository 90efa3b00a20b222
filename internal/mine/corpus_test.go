package mine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
	"tracescale/internal/spec"
	"tracescale/internal/tbuf"
)

// simulateCorpus runs the instances' flows interleaved (tags 1..tags per
// flow, tightly strided so same-tag instances race) and captures each run
// at full width — one trace per seed. Launch cycles are jittered per
// (flow, tag, trace) and the latency spread is wide: a mining corpus must
// interleave diversely, or genuinely invariant cross-flow orderings — the
// miner's documented indistinguishability limit — creep in. (A flow's
// first message fires at exactly its launch cycle, so without jitter every
// head message invariantly precedes every cross-flow non-head message.)
func simulateCorpus(t *testing.T, insts []flow.Instance, tags int, seeds []int64) [][]tbuf.Entry {
	t.Helper()
	var rules []tbuf.Rule
	width := 0
	seen := map[string]bool{}
	for _, in := range insts {
		for _, m := range in.Flow.Messages() {
			if !seen[m.Name] {
				seen[m.Name] = true
				rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
				width += m.Width
			}
		}
	}
	plan, err := tbuf.NewCapturePlan(rules)
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]tbuf.Entry
	for _, seed := range seeds {
		jit := rand.New(rand.NewSource(seed))
		var launches []soc.Launch
		for _, in := range insts {
			for k := 1; k <= tags; k++ {
				launches = append(launches, soc.Launch{
					Flow: in.Flow, Index: k, Start: uint64(8*(k-1) + jit.Intn(13)),
				})
			}
		}
		res, err := soc.Run(soc.Scenario{Name: "corpus", Launches: launches},
			soc.Config{Seed: seed, MaxLatency: 20})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("corpus run failed: %v", res.Symptoms)
		}
		mon := soc.NewMonitor(plan, tbuf.New(width, len(res.Events)+1), nil)
		if err := mon.Consume(res.Events); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, mon.Buffer().Entries())
	}
	return traces
}

// chainOrder returns a chain flow's message names in execution order.
func chainOrder(f *flow.Flow) []string {
	var out []string
	f.Executions(func(e flow.Execution) bool {
		for _, m := range e.Trace() {
			out = append(out, m.Name)
		}
		return false
	})
	return out
}

// The end-to-end miner differential of the acceptance criteria: seeded
// multi-flow universes, simulated to interleaved traces, mined, and the
// mined flows must be message-order-isomorphic to the ground truth —
// every flow's exact order, across a seed sweep.
func TestCorpusRecoversSynthUniverses(t *testing.T) {
	for _, genSeed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(genSeed))
		insts, err := synthUniverse(12, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		traces := simulateCorpus(t, insts, 8, []int64{genSeed * 10, genSeed*10 + 1, genSeed*10 + 2})
		res, err := Corpus(traces, Options{})
		if err != nil {
			t.Fatalf("gen seed %d: %v", genSeed, err)
		}
		if len(res.Flows) != len(insts) {
			t.Fatalf("gen seed %d: mined %d flows, want %d (splits %d, shared %v)",
				genSeed, len(res.Flows), len(insts), res.Splits, res.Shared)
		}
		want := map[string][]string{}
		for _, in := range insts {
			order := chainOrder(in.Flow)
			want[order[0]] = order
		}
		for _, m := range res.Flows {
			truth, ok := want[m.Order[0].Name]
			if !ok {
				t.Errorf("gen seed %d: mined flow starts at %s, no ground-truth flow does", genSeed, m.Order[0].Name)
				continue
			}
			if len(m.Order) != len(truth) {
				t.Errorf("gen seed %d: flow %s mined %d messages, want %d", genSeed, truth[0], len(m.Order), len(truth))
				continue
			}
			for i, o := range m.Order {
				if o.Name != truth[i] {
					t.Errorf("gen seed %d: flow %s position %d mined %s, want %s", genSeed, truth[0], i, o.Name, truth[i])
				}
			}
			if m.Tags == 0 {
				t.Errorf("gen seed %d: flow %s witnessed no complete transaction", genSeed, truth[0])
			}
		}
	}
}

// shuffleCorpus is one trace of tags slices, each a seeded random merge of
// chains disjoint chains c<i>_m0 … c<i>_m<length-1>: every flow runs
// concurrently with every other, so no cross-flow order is invariant.
func shuffleCorpus(chains, length, tags int, seed int64) []tbuf.Entry {
	rng := rand.New(rand.NewSource(seed))
	var tr []tbuf.Entry
	for tag := 1; tag <= tags; tag++ {
		next := make([]int, chains) // per chain: messages emitted so far
		live := make([]int, chains) // chains with messages left
		for c := range live {
			live[c] = c
		}
		for len(live) > 0 {
			k := rng.Intn(len(live))
			c := live[k]
			tr = append(tr, tbuf.Entry{Msg: flow.IndexedMsg{Name: fmt.Sprintf("c%d_m%d", c, next[c]), Index: tag}, Bits: 2})
			if next[c]++; next[c] == length {
				live = append(live[:k], live[k+1:]...)
			}
		}
	}
	return tr
}

// Mining cost must not grow with the number of flows a slice interleaves.
// Here every slice runs 8 (then 12) flows at once, so the joint product of
// a slice's completed flows holds 7^8 (5^12) states — past the
// interleaving cap. Each corpus must still mine exactly its chains.
func TestCorpusScalesWithConcurrentFlows(t *testing.T) {
	for _, c := range []struct{ chains, length int }{{8, 6}, {12, 4}} {
		t.Run(fmt.Sprintf("%dx%d", c.chains, c.length), func(t *testing.T) {
			const tags = 24
			res, err := Corpus([][]tbuf.Entry{shuffleCorpus(c.chains, c.length, tags, int64(c.chains))}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Flows) != c.chains || res.Splits != 0 {
				t.Fatalf("mined %d flows with %d splits, want %d flows and none", len(res.Flows), res.Splits, c.chains)
			}
			for _, m := range res.Flows {
				chain, ok := strings.CutSuffix(m.Order[0].Name, "_m0")
				if !ok || len(m.Order) != c.length || m.Tags != tags {
					t.Errorf("mined %d messages from %s over %d complete tags, want a %d-message chain over %d",
						len(m.Order), m.Order[0].Name, m.Tags, c.length, tags)
					continue
				}
				for j, o := range m.Order {
					if want := fmt.Sprintf("%s_m%d", chain, j); o.Name != want {
						t.Errorf("flow %s position %d mined %s, want %s", chain, j, o.Name, want)
					}
				}
			}
		})
	}
}

// synthUniverse mirrors synth.Universe's chain construction without
// importing it (synth depends on nothing here, but keeping mine's test
// surface to flow/soc keeps the dependency arrow clean): flows u0..u{k-1},
// messages u<i>_m<j> in chain order, exact message count.
func synthUniverse(messages, flows int, rng *rand.Rand) ([]flow.Instance, error) {
	out := make([]flow.Instance, flows)
	base, extra := messages/flows, messages%flows
	for i := range out {
		n := base
		if i < extra {
			n++
		}
		name := fmt.Sprintf("u%d", i)
		b := flow.NewBuilder(name)
		states := make([]string, n+1)
		for s := range states {
			states[s] = fmt.Sprintf("%s_s%d", name, s)
		}
		b.States(states...)
		b.Init(states[0])
		b.Stop(states[n])
		msgs := make([]string, n)
		for m := range msgs {
			msgs[m] = fmt.Sprintf("%s_m%d", name, m)
			b.Message(flow.Message{Name: msgs[m], Width: 1 + rng.Intn(8),
				Src: fmt.Sprintf("IP%d", rng.Intn(4)), Dst: fmt.Sprintf("IP%d", rng.Intn(4))})
		}
		b.Chain(states, msgs)
		f, err := b.Build()
		if err != nil {
			return nil, err
		}
		out[i] = flow.Instance{Flow: f, Index: 1}
	}
	return out, nil
}

// Mining is byte-deterministic: map iteration feeds the name and pair
// statistics, so repeated runs over one corpus must still emit identical
// spec documents.
func TestCorpusDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	insts, err := synthUniverse(10, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	traces := simulateCorpus(t, insts, 6, []int64{70, 71})
	var golden []byte
	for run := 0; run < 5; run++ {
		res, err := Corpus(traces, Options{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		s, err := res.Scenario("mined", 2, 32)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := spec.Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = buf.Bytes()
			continue
		}
		if !bytes.Equal(golden, buf.Bytes()) {
			t.Errorf("run %d mined a different spec", run)
		}
	}
}

// The T2 Scenario 1 corpus shares siincu between PIOR and Mon: both run
// an instance per tag, so each slice sees it twice. The miner must censor
// it as shared rather than guess an attribution, and still recover every
// other message's flow exactly.
func TestCorpusCensorsSharedMessages(t *testing.T) {
	s, err := opensparc.ScenarioByID(1)
	if err != nil {
		t.Fatal(err)
	}
	traces := simulateCorpus(t, s.Instances(), 6, []int64{11, 12, 13})
	res, err := Corpus(traces, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shared) != 1 || res.Shared[0] != opensparc.MsgSIINCU {
		t.Fatalf("Shared = %v, want [%s]", res.Shared, opensparc.MsgSIINCU)
	}
	// PIOR and Mon minus siincu, plus PIOW: still three flows, with the
	// censored message absent.
	if len(res.Flows) != 3 {
		t.Fatalf("mined %d flows (splits %d): %+v", len(res.Flows), res.Splits, res.Flows)
	}
	want := map[string][]string{}
	for _, f := range s.Flows() {
		var order []string
		for _, name := range chainOrder(f) {
			if name != opensparc.MsgSIINCU {
				order = append(order, name)
			}
		}
		want[order[0]] = order
	}
	for _, m := range res.Flows {
		truth := want[m.Order[0].Name]
		if truth == nil {
			t.Errorf("mined flow starts at %s, none expected", m.Order[0].Name)
			continue
		}
		got := make([]string, len(m.Order))
		for i, o := range m.Order {
			got[i] = o.Name
		}
		if strings.Join(got, " ") != strings.Join(truth, " ") {
			t.Errorf("flow %s mined %v, want %v", truth[0], got, truth)
		}
	}
}

// A corpus whose slices are wrap-truncated still mines: fragments count
// into Skipped/Truncated, not into protocol violations.
func TestCorpusAcceptsTruncatedSlices(t *testing.T) {
	mk := func(tag int, names ...string) []tbuf.Entry {
		var out []tbuf.Entry
		for _, n := range names {
			out = append(out, tbuf.Entry{Msg: flow.IndexedMsg{Name: n, Index: tag}, Bits: 2})
		}
		return out
	}
	// Three slices of the flow [a, b, c]; tag 3's head was evicted.
	tr := append(mk(1, "a", "b", "c"), mk(2, "a", "b", "c")...)
	tr = append(tr, mk(3, "b", "c")...)
	res, err := Corpus([][]tbuf.Entry{tr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatalf("mined %d flows", len(res.Flows))
	}
	m := res.Flows[0]
	if m.Tags != 2 || m.Skipped != 1 || res.Truncated != 1 {
		t.Errorf("tags %d skipped %d truncated %d, want 2/1/1", m.Tags, m.Skipped, res.Truncated)
	}
	if len(m.Order) != 3 || m.Order[0].Name != "a" || m.Order[2].Name != "c" {
		t.Errorf("order = %+v", m.Order)
	}
}

func TestCorpusErrors(t *testing.T) {
	if _, err := Corpus(nil, Options{}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := Corpus(nil, Options{MinSupport: -1}); err == nil {
		t.Error("negative support accepted")
	}
	if _, err := Corpus(nil, Options{MinConfidence: 0.5}); err == nil {
		t.Error("confidence 0.5 accepted (both orders could win)")
	}
	if _, err := Corpus(nil, Options{MinConfidence: 1.5}); err == nil {
		t.Error("confidence beyond 1 accepted")
	}
	// Every message below support: one slice only.
	one := []tbuf.Entry{{Msg: flow.IndexedMsg{Name: "a", Index: 1}, Bits: 1}}
	if _, err := Corpus([][]tbuf.Entry{one}, Options{}); err == nil {
		t.Error("all-low-support corpus accepted")
	}
	// A hand-fed entry with no message name (trace.Parse refuses such
	// lines) would otherwise be mined as a flow message.
	var unnamed []tbuf.Entry
	for tag := 1; tag <= 2; tag++ {
		unnamed = append(unnamed,
			tbuf.Entry{Msg: flow.IndexedMsg{Name: "a", Index: tag}, Bits: 1},
			tbuf.Entry{Msg: flow.IndexedMsg{Index: tag}, Bits: 1})
	}
	if _, err := Corpus([][]tbuf.Entry{unnamed}, Options{}); err == nil || !strings.Contains(err.Error(), "empty name") {
		t.Errorf("entry with empty message name: err = %v", err)
	}
	// Scenario materialization guards.
	r := &Result{Flows: []*Mined{{Order: []Observation{{Name: "a", Width: 1, Count: 1}}}}}
	if _, err := r.Scenario("m", 0, 32); err == nil {
		t.Error("zero instances accepted")
	}
	if _, err := (&Result{Flows: []*Mined{{}}}).Scenario("m", 1, 32); err == nil {
		t.Error("empty mined flow materialized")
	}
}

// An order inversion that support/confidence statistics alone would keep
// (because it only shows in a minority... of one slice) is caught by the
// consistency oracle: the slice's projection is not an execution of the
// candidate chain, so the merged candidate is split rather than accepted.
func TestCorpusOracleSplitsInconsistentCandidate(t *testing.T) {
	mk := func(tag int, names ...string) []tbuf.Entry {
		var out []tbuf.Entry
		for _, n := range names {
			out = append(out, tbuf.Entry{Msg: flow.IndexedMsg{Name: n, Index: tag}, Bits: 2})
		}
		return out
	}
	// a and b look invariantly ordered at confidence 0.75 (3 of 4 slices
	// agree), but the dissenting slice means no single chain [a, b]
	// explains the corpus — the oracle must split them apart.
	tr := append(mk(1, "a", "b"), mk(2, "a", "b")...)
	tr = append(tr, mk(3, "a", "b")...)
	tr = append(tr, mk(4, "b", "a")...)
	res, err := Corpus([][]tbuf.Entry{tr}, Options{MinConfidence: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("mined %d flows, want the merged candidate split into 2", len(res.Flows))
	}
	if res.Splits == 0 {
		t.Error("no repair split recorded")
	}
}

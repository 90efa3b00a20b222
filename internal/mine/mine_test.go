package mine

import (
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
)

// captureAll records every message of a run at full width — a mining
// trace.
func captureAll(t *testing.T, f *flow.Flow, n int, seed int64) []tbuf.Entry {
	t.Helper()
	return captureDepth(t, f, n, seed, 4096)
}

// captureDepth is captureAll through a trace buffer depth entries deep; a
// shallow buffer wraps and evicts the oldest entries.
func captureDepth(t *testing.T, f *flow.Flow, n int, seed int64, depth int) []tbuf.Entry {
	t.Helper()
	var rules []tbuf.Rule
	width := 0
	for _, m := range f.Messages() {
		rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
		width += m.Width
	}
	plan, err := tbuf.NewCapturePlan(rules)
	if err != nil {
		t.Fatal(err)
	}
	res, err := soc.Run(soc.Scenario{Name: f.Name(), Launches: soc.Repeat(f, n, 1, 0, 8)},
		soc.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("mining run failed: %v", res.Symptoms)
	}
	mon := soc.NewMonitor(plan, tbuf.New(width, depth), nil)
	if err := mon.Consume(res.Events); err != nil {
		t.Fatal(err)
	}
	return mon.Buffer().Entries()
}

// chainOf returns the message names of f's single execution — the
// ground-truth order a miner must recover from a linear flow.
func chainOf(f *flow.Flow) []string {
	var want []string
	f.Executions(func(e flow.Execution) bool {
		for _, msg := range e.Trace() {
			want = append(want, msg.Name)
		}
		return false
	})
	return want
}

// Mining each T2 single-flow regression trace recovers that flow's exact
// shape: message order, count, and widths — from one trace file, and with
// counts accumulating across a two-file corpus of the same protocol.
func TestMineRecoversT2Flows(t *testing.T) {
	for name, f := range opensparc.Flows() {
		want := chainOf(f)
		first := captureAll(t, f, 12, 3)
		for _, corpus := range [][][]tbuf.Entry{{first}, {first, captureAll(t, f, 7, 5)}} {
			tags := 12
			if len(corpus) == 2 {
				tags = 19
			}
			res, err := Corpus(corpus, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Flows) != 1 || res.Truncated != 0 {
				t.Fatalf("%s: mined %d flows (%d truncated slices), want 1 complete flow", name, len(res.Flows), res.Truncated)
			}
			m := res.Flows[0]
			if m.Tags != tags || m.Skipped != 0 {
				t.Errorf("%s: mined %d tags (%d skipped), want %d", name, m.Tags, m.Skipped, tags)
			}
			if len(m.Order) != len(want) {
				t.Fatalf("%s: mined %d messages, want %d", name, len(m.Order), len(want))
			}
			for i, o := range m.Order {
				if o.Name != want[i] {
					t.Errorf("%s: position %d mined %s, want %s", name, i, o.Name, want[i])
				}
				gt, _ := f.MessageID(o.Name)
				if o.Width != f.Message(gt).Width {
					t.Errorf("%s: %s mined width %d, want %d", name, o.Name, o.Width, f.Message(gt).Width)
				}
				if o.Count != tags {
					t.Errorf("%s: %s count %d, want %d", name, o.Name, o.Count, tags)
				}
			}
			// The materialized flow has the right shape.
			mined, err := m.Flow("mined_" + name)
			if err != nil {
				t.Fatal(err)
			}
			if mined.NumStates() != f.NumStates() || mined.NumMessages() != f.NumMessages() {
				t.Errorf("%s: mined flow (%d, %d), want (%d, %d)", name,
					mined.NumStates(), mined.NumMessages(), f.NumStates(), f.NumMessages())
			}
		}
	}
}

func TestMineErrors(t *testing.T) {
	m := &Mined{}
	if _, err := m.Flow("x"); err == nil {
		t.Error("empty mined flow accepted")
	}
}

// Recording through a trace buffer too shallow for the run wraps the
// circular memory: the oldest entries — the leading transactions' early
// messages — are evicted, leaving truncated fragments. The miner must
// recover the ground-truth chain from the surviving complete tags and
// count each fragment as skipped, not mis-split the flow. The depths are
// deliberately not multiples of the 5-message transaction, so eviction
// cuts a transaction mid-flight at every depth.
func TestMineChainSkipsWrapTruncatedTags(t *testing.T) {
	f := opensparc.PIOR()
	want := chainOf(f)
	for _, depth := range []int{17, 23, 38, 41} {
		entries := captureDepth(t, f, 12, 3, depth)
		if len(entries) != depth {
			t.Fatalf("depth %d: buffer holds %d entries; it did not wrap", depth, len(entries))
		}
		// Ground truth from the buffer itself: a tag is complete when all
		// of its messages survived eviction.
		perTag := map[int]int{}
		for _, e := range entries {
			perTag[e.Msg.Index]++
		}
		complete, partial := 0, 0
		for _, n := range perTag {
			if n == len(want) {
				complete++
			} else {
				partial++
			}
		}
		res, err := Corpus([][]tbuf.Entry{entries}, Options{})
		if err != nil {
			t.Fatalf("depth %d: wrapped trace rejected: %v", depth, err)
		}
		if len(res.Flows) != 1 || res.Splits != 0 {
			t.Fatalf("depth %d: mined %d flows with %d splits, want the one chain", depth, len(res.Flows), res.Splits)
		}
		m := res.Flows[0]
		if partial == 0 || m.Tags != complete || m.Skipped != partial || res.Truncated != partial {
			t.Errorf("depth %d: mined %d complete, %d skipped (%d truncated slices); buffer holds %d complete, %d partial",
				depth, m.Tags, m.Skipped, res.Truncated, complete, partial)
		}
		if len(m.Order) != len(want) {
			t.Fatalf("depth %d: mined %d messages, want %d", depth, len(m.Order), len(want))
		}
		for i, o := range m.Order {
			if o.Name != want[i] {
				t.Errorf("depth %d: position %d mined %s, want %s", depth, i, o.Name, want[i])
			}
		}
	}
}

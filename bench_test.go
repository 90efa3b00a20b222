// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus micro-benchmarks of the
// pipeline stages and ablations of the design choices called out in
// DESIGN.md. Quality metrics (gain, coverage, pruning) are attached to the
// ablation benchmarks via ReportMetric so regressions show up next to the
// timing.
package tracescale_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tracescale"
	"tracescale/internal/campaign"
	"tracescale/internal/circuits"
	"tracescale/internal/core"
	"tracescale/internal/exp"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/mine"
	"tracescale/internal/netlist"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/reconstruct"
	"tracescale/internal/regress"
	"tracescale/internal/restore"
	"tracescale/internal/sigsel"
	"tracescale/internal/soc"
	"tracescale/internal/synth"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
	"tracescale/internal/usb"
)

const benchSeed = 1

// ---- One benchmark per table and figure -------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := exp.Table2(); len(got) != 4 {
			b.Fatal("bad table 2")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table3(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table4(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table5(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table6(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Table7(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Pipeline micro-benchmarks -----------------------------------------

func scenario3Evaluator(b *testing.B) *tracescale.Evaluator {
	b.Helper()
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := interleave.New(s.Instances())
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkInterleaveScenario3(b *testing.B) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interleave.New(s.Instances()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorScenario3(b *testing.B) {
	s, _ := opensparc.ScenarioByID(3)
	p, err := interleave.New(s.Instances())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEvaluator(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectExhaustive(b *testing.B) {
	e := scenario3Evaluator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Select(e, core.Config{BufferWidth: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectKnapsack(b *testing.B) {
	e := scenario3Evaluator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Select(e, core.Config{BufferWidth: 32, Method: core.Knapsack}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectGreedy(b *testing.B) {
	e := scenario3Evaluator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Select(e, core.Config{BufferWidth: 32, Method: core.Greedy}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectBranchBound(b *testing.B) {
	e := scenario3Evaluator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Select(e, core.Config{BufferWidth: 32, Method: core.BranchBound}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalization(b *testing.B) {
	e := scenario3Evaluator(b)
	p := e.Product()
	traced := map[string]bool{"piowcrd": true, "ncumcurd": true, "siincu": true}
	observed := []tracescale.IndexedMsg{
		{Name: "siincu", Index: 1},
		{Name: "piowcrd", Index: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ConsistentPaths(traced, observed, tracescale.Prefix); err != nil {
			b.Fatal(err)
		}
	}
}

// Exact execution count of a built product: the Counter over an empty
// observation, which Product.TotalPaths runs once per product. The
// benchmark runs the Counter itself, not the memoized TotalPaths. The
// products are built before the timer starts.
func BenchmarkTotalPaths(b *testing.B) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		b.Fatal(err)
	}
	t2, err := interleave.New(s.Instances())
	if err != nil {
		b.Fatal(err)
	}
	cc := tracescale.CacheCoherence()
	insts := make([]tracescale.Instance, 6)
	for i := range insts {
		insts[i] = tracescale.Instance{Flow: cc, Index: i + 1}
	}
	ccx6, err := interleave.New(insts)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *interleave.Product
	}{{"t2-scenario3", t2}, {"cc-x6", ccx6}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cnt, err := c.p.NewCounter(nil, nil, interleave.Exact)
				if err != nil {
					b.Fatal(err)
				}
				cnt.Total()
			}
		})
	}
}

// Exact pair count behind expected reconstruction ambiguity, the
// campaign's set-scoring cost: T2 scenario 3 (216 states) with 3 of its
// 12 messages traced. The product and the traced set are built before the
// timer starts.
func BenchmarkPairCount(b *testing.B) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := interleave.New(s.Instances())
	if err != nil {
		b.Fatal(err)
	}
	traced := map[string]bool{"dmupeureq": true, "dmusiird": true, "siincu": true}
	b.Run("t2-scenario3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reconstruct.PairCount(p, traced); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSoCSimScenario1(b *testing.B) {
	s, _ := opensparc.ScenarioByID(1)
	sc := soc.Scenario{Name: s.Name, Launches: s.Launches(exp.InstancesPerFlow, 24)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := soc.Run(sc, soc.Config{Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// One campaign over T2 scenario 1's cells (every catalog bug whose target
// the scenario carries, 1 rep, 1 worker), scoring the mi and widest sets:
// golden and buggy simulation, the run diff and one debugging session per
// set and symptom point. The sets are selected before the timer starts.
func BenchmarkCampaignScenario1(b *testing.B) {
	s, err := opensparc.ScenarioByID(1)
	if err != nil {
		b.Fatal(err)
	}
	causes, err := opensparc.Causes(s.ID)
	if err != nil {
		b.Fatal(err)
	}
	universe := s.Universe()
	var bugs []opensparc.Bug
	for _, bug := range opensparc.Bugs() {
		for _, m := range universe {
			if m.Name == bug.Target {
				bugs = append(bugs, bug)
				break
			}
		}
	}
	ses, err := pipeline.For(s.Instances())
	if err != nil {
		b.Fatal(err)
	}
	mi, err := ses.Select(core.Config{BufferWidth: exp.BufferWidth})
	if err != nil {
		b.Fatal(err)
	}
	widest, err := core.WidestFirstBaseline(ses.Evaluator(), exp.BufferWidth)
	if err != nil {
		b.Fatal(err)
	}
	spec := campaign.Spec{Name: "t2", Seed: benchSeed, Reps: 1, Workers: 1,
		Scenarios: []campaign.Scenario{{
			Name:     "scenario-1",
			Launches: s.Launches(exp.InstancesPerFlow, 24),
			Universe: universe,
			Flows:    s.Flows(),
			Causes:   causes,
			Bugs:     bugs,
			Sets: []campaign.MessageSet{
				{Name: "mi", Traced: mi.TracedNames()},
				{Name: "widest", Traced: widest.Messages},
			},
		}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetlistSimUSB(b *testing.B) {
	n := usb.Design()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netlist.Record(n, 48, benchSeed)
	}
}

func BenchmarkRestoreUSB(b *testing.B) {
	n := usb.Design()
	tr := netlist.Record(n, 48, benchSeed)
	tap, ok := n.NetID("rx_shift8")
	if !ok {
		b.Fatal("rx_shift8 missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := restore.Restore(tr, []int{tap}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSigSeTUSB(b *testing.B) {
	n := usb.Design()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigsel.SigSeT(n, sigsel.SigSeTConfig{Budget: 32, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPRNetUSB(b *testing.B) {
	n := usb.Design()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigsel.PRNet(n, sigsel.PRNetConfig{Budget: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

// Trace parsing: the three trace texts of a T2 scenario-3 golden corpus,
// each parsed from its bytes as the trace-mine ingest parses them.
func BenchmarkTraceParse(b *testing.B) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := exp.GoldenCorpus(s, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	texts := make([][]byte, len(corpus))
	size := 0
	for i, entries := range corpus {
		var buf bytes.Buffer
		if err := trace.Write(&buf, entries); err != nil {
			b.Fatal(err)
		}
		texts[i] = buf.Bytes()
		size += buf.Len()
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := trace.Parse(bytes.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Corpus mining: a T2 scenario-3 golden corpus as t2campaign -mined
// simulates it (3 traces × 8 tags), and one 24-tag trace whose every slice
// interleaves 8 disjoint 6-message chains — a joint product of 7^8 states
// per slice, which mining must never build.
func BenchmarkMineCorpus(b *testing.B) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		b.Fatal(err)
	}
	t2, err := exp.GoldenCorpus(s, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		traces [][]tbuf.Entry
	}{
		{"t2-scenario3", t2},
		{"8-flows", [][]tbuf.Entry{shuffleCorpus(8, 6, 24, 8)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mine.Corpus(c.traces, mine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shuffleCorpus is one trace of tags slices, each a seeded random merge of
// chains disjoint chains c<i>_m0 … c<i>_m<length-1>.
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

// ---- Ablations ----------------------------------------------------------

// Packing on/off: DESIGN.md calls out Step 3 as the utilization lever; the
// metric deltas quantify it per scenario.
func BenchmarkAblationPacking(b *testing.B) {
	for _, s := range opensparc.Scenarios() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			var wp, wop *core.Result
			for i := 0; i < b.N; i++ {
				sel, err := exp.SelectScenario(s)
				if err != nil {
					b.Fatal(err)
				}
				wp, wop = sel.WP, sel.WoP
			}
			b.ReportMetric(wp.Utilization-wop.Utilization, "util-delta")
			b.ReportMetric(wp.Coverage-wop.Coverage, "cov-delta")
		})
	}
}

// Selector quality: exhaustive is the reference; knapsack must match it
// exactly (gain is additive) and greedy should be close.
func BenchmarkAblationSelector(b *testing.B) {
	e := scenario3Evaluator(b)
	ref, err := core.Select(e, core.Config{BufferWidth: 32, DisablePacking: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []core.Method{core.Exhaustive, core.Knapsack, core.Greedy} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, err = core.Select(e, core.Config{BufferWidth: 32, Method: m, DisablePacking: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.SelectedGain/ref.SelectedGain, "gain-ratio")
		})
	}
}

// Scenario scale: interleaving and selection cost versus instance count —
// the scalability objective of the paper's third contribution.
func BenchmarkAblationScale(b *testing.B) {
	f := tracescale.CacheCoherence()
	for _, k := range []int{2, 4, 6, 8} {
		k := k
		b.Run(string(rune('0'+k))+"-instances", func(b *testing.B) {
			insts := make([]tracescale.Instance, k)
			for i := range insts {
				insts[i] = tracescale.Instance{Flow: f, Index: i + 1}
			}
			for i := 0; i < b.N; i++ {
				p, err := tracescale.Interleave(insts)
				if err != nil {
					b.Fatal(err)
				}
				e, err := tracescale.NewEvaluator(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tracescale.Select(e, tracescale.Config{BufferWidth: 2, Method: tracescale.Knapsack}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Synthetic sweeps: selection cost versus scenario size, driven by the
// workload generator (internal/synth).
func BenchmarkSweepFlows(b *testing.B) {
	for _, flows := range []int{2, 3, 4} {
		flows := flows
		b.Run(fmt.Sprintf("%d-flows", flows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			insts, err := synth.Scenario(flows, synth.Params{States: 4, MaxWidth: 8, GroupProb: 0.3}, rng)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				p, err := tracescale.Interleave(insts)
				if err != nil {
					b.Fatal(err)
				}
				e, err := tracescale.NewEvaluator(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tracescale.Select(e, tracescale.Config{BufferWidth: 16, Method: tracescale.Knapsack}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSweepMessages(b *testing.B) {
	// One long chain flow: message count grows linearly with states, and
	// exhaustive enumeration exponentially — knapsack stays flat.
	for _, states := range []int{8, 12, 16} {
		states := states
		b.Run(fmt.Sprintf("%d-states", states), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			insts, err := synth.Scenario(1, synth.Params{States: states, MaxWidth: 6}, rng)
			if err != nil {
				b.Fatal(err)
			}
			p, err := tracescale.Interleave(insts)
			if err != nil {
				b.Fatal(err)
			}
			e, err := tracescale.NewEvaluator(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tracescale.Select(e, tracescale.Config{BufferWidth: 16, Method: tracescale.Knapsack}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Regression suite throughput (the §4 testbench layer).
func BenchmarkRegressSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := regress.RunSuite(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			if !r.Passed {
				b.Fatalf("%s failed: %v", r.Test, r.Violations)
			}
		}
	}
}

// SRR selection cost versus design size — the paper's §1 claim that
// SRR-based methods cannot scale to T2-class designs. Runtime grows
// superlinearly with flip-flop count while the application-level selector
// depends only on the scenario's message count.
func BenchmarkSigSeTScaling(b *testing.B) {
	for _, ffs := range []int{64, 128, 256} {
		ffs := ffs
		b.Run(fmt.Sprintf("%d-ffs", ffs), func(b *testing.B) {
			n, err := circuits.Generate(circuits.Params{FFs: ffs, ShiftFraction: 0.5}, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sigsel.SigSeT(n, sigsel.SigSeTConfig{Budget: 16, Cycles: 32, Seed: benchSeed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Restoration cost versus design size (the other half of the scalability
// story: one restoration pass is what SigSeT evaluates hundreds of times).
func BenchmarkRestoreScaling(b *testing.B) {
	for _, ffs := range []int{64, 256, 1024} {
		ffs := ffs
		b.Run(fmt.Sprintf("%d-ffs", ffs), func(b *testing.B) {
			n, err := circuits.Generate(circuits.Params{FFs: ffs, ShiftFraction: 0.5}, rand.New(rand.NewSource(2)))
			if err != nil {
				b.Fatal(err)
			}
			tr := netlist.Record(n, 32, benchSeed)
			traced := n.FFs()[:8]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := restore.Restore(tr, traced); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Session layer -----------------------------------------------------

// Session reuse across a buffer-width sweep: "uncached" rebuilds the
// interleaving and evaluator for every width (the pre-Session pipeline);
// "session" pays for the analysis once per scenario and reruns only
// Steps 1-3 per budget.
func BenchmarkSessionReuse(b *testing.B) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		b.Fatal(err)
	}
	widths := []int{8, 16, 24, 32, 48, 64}

	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range widths {
				p, err := interleave.New(s.Instances())
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.NewEvaluator(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Select(e, core.Config{BufferWidth: w}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := pipeline.NewCacheObs(nil, 0)
			for _, w := range widths {
				ses, err := c.Session(s.Instances())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ses.Select(core.Config{BufferWidth: w}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Session analysis plus one selection as the instance count grows:
// CacheCoherence × k through pipeline.NewSession, then knapsack at 2 bits.
// The session computes the evaluator in closed form, so the cost tracks
// the instance count, not the 3^k-sized interleaved product.
func BenchmarkSessionScale(b *testing.B) {
	cc := tracescale.CacheCoherence()
	for _, k := range []int{2, 4, 6, 8} {
		insts := make([]tracescale.Instance, k)
		for i := range insts {
			insts[i] = tracescale.Instance{Flow: cc, Index: i + 1}
		}
		b.Run(fmt.Sprintf("%d-instances", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ses, err := pipeline.NewSession(insts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ses.Select(core.Config{BufferWidth: 2, Method: core.Knapsack}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Session analysis plus a branch-and-bound selection over a 120-message
// synthetic universe in two flows, at the paper's 32-bit buffer.
func BenchmarkSessionUniverse120(b *testing.B) {
	insts, err := synth.Universe(120, 2, synth.Params{MaxWidth: 6, IPs: 4}, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ses, err := pipeline.NewSession(insts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ses.Select(core.Config{BufferWidth: 32, Method: core.BranchBound}); err != nil {
			b.Fatal(err)
		}
	}
}

package debugger_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tracescale/internal/core"
	"tracescale/internal/debugger"
	"tracescale/internal/exp"
	"tracescale/internal/flow"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/prng"
	"tracescale/internal/soc"
)

// The differential tests live in an external package because the T2
// scenarios they run come from opensparc, which imports debugger.

type occKey struct {
	name       string
	index      int
	occurrence int
}

// refObserve is Observe as it was before the run diff: one pass over both
// runs' delivered events per traced set, under string keys. It is the
// reference the diff and its projection are held equal to.
func refObserve(golden, buggy *soc.Result, traced map[string]bool) debugger.Observation {
	obs := debugger.Observation{
		Global:     make(map[string]debugger.Status, len(traced)),
		Focused:    make(map[string]debugger.Status, len(traced)),
		FocusIndex: -1,
		Symptoms:   buggy.Symptoms,
		Entries:    make(map[string]int, len(traced)),
	}
	if len(buggy.Symptoms) > 0 {
		obs.FocusIndex = buggy.Symptoms[0].Index
	}

	type counts struct {
		golden, buggy               int
		goldenFocused, buggyFocused int
		corrupt, corruptFocused     bool
	}
	byName := make(map[string]*counts, len(traced))
	for name := range traced {
		byName[name] = &counts{}
	}
	goldData := make(map[occKey]uint64)
	for _, ev := range golden.Delivered() {
		c, ok := byName[ev.Msg.Name]
		if !ok {
			continue
		}
		c.golden++
		if ev.Msg.Index == obs.FocusIndex {
			c.goldenFocused++
		}
		goldData[occKey{ev.Msg.Name, ev.Msg.Index, ev.Occurrence}] = ev.Data
	}
	for _, ev := range buggy.Delivered() {
		c, ok := byName[ev.Msg.Name]
		if !ok {
			continue
		}
		c.buggy++
		focused := ev.Msg.Index == obs.FocusIndex
		if focused {
			c.buggyFocused++
		}
		if want, ok := goldData[occKey{ev.Msg.Name, ev.Msg.Index, ev.Occurrence}]; ok && want != ev.Data {
			c.corrupt = true
			if focused {
				c.corruptFocused = true
			}
		}
	}
	classify := func(corrupt bool, buggy, golden int) debugger.Status {
		switch {
		case corrupt:
			return debugger.Corrupt
		case buggy == 0 && golden > 0:
			return debugger.Missing
		case buggy < golden:
			return debugger.Reduced
		case buggy > golden:
			return debugger.Extra
		default:
			return debugger.Normal
		}
	}
	for name, c := range byName {
		obs.Entries[name] = c.buggy
		obs.Global[name] = classify(c.corrupt, c.buggy, c.golden)
		obs.Focused[name] = classify(c.corruptFocused, c.buggyFocused, c.goldenFocused)
	}
	return obs
}

// refDebug is Debug as it was before the compiled plan: every call
// rebuilds the universe index, the IP pairs, the flow adjacency and the
// cause table from its Config. It is the reference Compile and Plan.Debug
// are held equal to, errors and their precedence included.
func refDebug(obs debugger.Observation, cfg debugger.Config) (*debugger.Report, error) {
	if len(cfg.Traced) == 0 {
		return nil, fmt.Errorf("debugger: no traced messages")
	}
	if len(cfg.Causes) == 0 {
		return nil, fmt.Errorf("debugger: no candidate causes")
	}
	byName := make(map[string]flow.Message, len(cfg.Universe))
	for _, m := range cfg.Universe {
		byName[m.Name] = m
	}
	tracedSet := make(map[string]bool, len(cfg.Traced))
	for _, n := range cfg.Traced {
		if _, ok := byName[n]; !ok {
			return nil, fmt.Errorf("debugger: traced message %q not in universe", n)
		}
		if _, ok := obs.Global[n]; !ok {
			return nil, fmt.Errorf("debugger: traced message %q missing from observation", n)
		}
		tracedSet[n] = true
	}

	// Legal IP pairs: every ordered (src, dst) with scenario traffic.
	type pair struct{ src, dst string }
	legal := make(map[pair]bool)
	for _, m := range cfg.Universe {
		legal[pair{m.Src, m.Dst}] = true
	}
	candidates := make(map[pair]bool, len(legal))
	for p := range legal {
		candidates[p] = true
	}

	// Flow adjacency between message names: two messages are neighbors if
	// some flow has transitions carrying them on adjacent edges (sharing a
	// state). The investigation frontier expands along this graph.
	adj := make(map[string]map[string]bool)
	link := func(a, b string) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = make(map[string]bool)
		}
		if adj[b] == nil {
			adj[b] = make(map[string]bool)
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	for _, f := range cfg.Flows {
		for _, e1 := range f.Edges() {
			for _, e2 := range f.Edges() {
				if e1.To == e2.From {
					link(f.Message(e1.Msg).Name, f.Message(e2.Msg).Name)
				}
			}
		}
	}

	// Alive causes.
	alive := make(map[int]*debugger.Cause, len(cfg.Causes))
	order := make([]int, 0, len(cfg.Causes))
	for i := range cfg.Causes {
		c := &cfg.Causes[i]
		if _, dup := alive[c.ID]; dup {
			return nil, fmt.Errorf("debugger: duplicate cause id %d", c.ID)
		}
		alive[c.ID] = c
		order = append(order, c.ID)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &debugger.Report{TotalCauses: len(cfg.Causes), LegalPairs: len(legal)}

	// Investigation order: symptom message first, then flow-adjacent
	// traced messages, then anything left, pseudo-randomly among peers.
	investigated := make(map[string]bool)
	frontier := make(map[string]bool)
	if len(obs.Symptoms) > 0 && tracedSet[obs.Symptoms[0].Msg.Name] {
		frontier[obs.Symptoms[0].Msg.Name] = true
	}
	pickFrom := func(set map[string]bool) string {
		var names []string
		for n := range set {
			if !investigated[n] {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return ""
		}
		sort.Strings(names)
		return names[rng.Intn(len(names))]
	}
	// A pair is exonerated only once every traced message crossing it has
	// been investigated and found Normal; one abnormal message keeps the
	// pair suspect forever.
	tracedOnPair := make(map[pair]int)
	for n := range tracedSet {
		m := byName[n]
		tracedOnPair[pair{m.Src, m.Dst}]++
	}
	normalOnPair := make(map[pair]int)
	taintedPair := make(map[pair]bool)
	pairsSeen := make(map[pair]bool)
	for len(investigated) < len(tracedSet) {
		next := pickFrom(frontier)
		if next == "" {
			next = pickFrom(tracedSet)
		}
		investigated[next] = true
		delete(frontier, next)
		for n := range adj[next] {
			if tracedSet[n] && !investigated[n] {
				frontier[n] = true
			}
		}

		m := byName[next]
		global, focused := obs.Global[next], obs.Focused[next]
		step := debugger.Step{Msg: next, Global: global, Focused: focused, Src: m.Src, Dst: m.Dst}
		for _, id := range order {
			c, ok := alive[id]
			if !ok {
				continue
			}
			contradicted := false
			if p, has := c.Signature[next]; has && !p.Matches(focused) {
				contradicted = true
			}
			if p, has := c.GlobalSignature[next]; has && !p.Matches(global) {
				contradicted = true
			}
			if contradicted {
				step.Eliminated = append(step.Eliminated, id)
				delete(alive, id)
			}
		}
		pr := pair{m.Src, m.Dst}
		pairsSeen[pr] = true
		if global == debugger.Normal {
			normalOnPair[pr]++
		} else {
			taintedPair[pr] = true
		}
		if !taintedPair[pr] && normalOnPair[pr] == tracedOnPair[pr] && candidates[pr] {
			step.Exonerated = true
			delete(candidates, pr)
		}
		rep.EntriesInvestigated += obs.Entries[next]
		rep.Steps = append(rep.Steps, step)
		rep.CauseCurve = append(rep.CauseCurve, len(alive))
		rep.PairCurve = append(rep.PairCurve, len(candidates))
	}

	for _, id := range order {
		if c, ok := alive[id]; ok {
			rep.Plausible = append(rep.Plausible, *c)
		}
	}
	rep.PrunedFraction = float64(rep.TotalCauses-len(rep.Plausible)) / float64(rep.TotalCauses)
	rep.CandidatePairs = len(candidates)
	rep.PairsInvestigated = len(pairsSeen)
	return rep, nil
}

// t2Case is one T2 usage scenario with what a campaign scores on it.
type t2Case struct {
	s        opensparc.Scenario
	launches []soc.Launch
	universe []flow.Message
	causes   []debugger.Cause
	bugs     []opensparc.Bug
	sets     [][]string
}

// t2Cases builds T2 scenarios 1-3 as t2campaign does: the five default
// sets (mi, reconstruct, widest, pagerank, random at 32 bits), then 16
// seeded random subsets of the universe, the first with a duplicated
// name.
func t2Cases(t *testing.T) []t2Case {
	t.Helper()
	var out []t2Case
	for _, s := range opensparc.Scenarios() {
		c := t2Case{s: s, launches: s.Launches(exp.InstancesPerFlow, 24), universe: s.Universe()}
		var err error
		if c.causes, err = opensparc.Causes(s.ID); err != nil {
			t.Fatal(err)
		}
		for _, b := range opensparc.Bugs() {
			for _, m := range c.universe {
				if m.Name == b.Target {
					c.bugs = append(c.bugs, b)
					break
				}
			}
		}
		ses, err := pipeline.For(s.Instances())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []core.Method{core.Exhaustive, core.Reconstruct} {
			res, err := ses.Select(core.Config{BufferWidth: exp.BufferWidth, Method: m})
			if err != nil {
				t.Fatal(err)
			}
			c.sets = append(c.sets, res.TracedNames())
		}
		e := ses.Evaluator()
		for _, baseline := range []func() (core.Candidate, error){
			func() (core.Candidate, error) { return core.WidestFirstBaseline(e, exp.BufferWidth) },
			func() (core.Candidate, error) { return core.PageRankBaseline(e, exp.BufferWidth) },
			func() (core.Candidate, error) { return core.RandomBaseline(e, exp.BufferWidth, 1) },
		} {
			cand, err := baseline()
			if err != nil {
				t.Fatal(err)
			}
			c.sets = append(c.sets, cand.Messages)
		}
		rng := rand.New(rand.NewSource(int64(s.ID)))
		for i := 0; i < 16; i++ {
			var set []string
			for _, j := range rng.Perm(len(c.universe))[:1+rng.Intn(len(c.universe))] {
				set = append(set, c.universe[j].Name)
			}
			if i == 0 {
				set = append(set, set[0])
			}
			c.sets = append(c.sets, set)
		}
		out = append(out, c)
	}
	return out
}

func tracedMap(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// TestDiffAndPlanMatchReferenceT2 holds the campaign's path — one stream
// per seed read by both runs and every session, one diff per run pair,
// projected per set, and one plan per (scenario, set) — and the Observe and
// Debug wrappers equal to the references, which seed a source per session,
// on T2 scenarios 1-3, every catalog bug the scenario carries, seeds 1-6
// and every set.
func TestDiffAndPlanMatchReferenceT2(t *testing.T) {
	runs, debugged := 0, 0
	for _, c := range t2Cases(t) {
		plans := make([]*debugger.Plan, len(c.sets))
		for k, set := range c.sets {
			var err error
			plans[k], err = debugger.Compile(debugger.Config{
				Universe: c.universe, Flows: c.s.Flows(), Traced: set, Causes: c.causes})
			if err != nil {
				t.Fatalf("scenario %d set %v: %v", c.s.ID, set, err)
			}
		}
		sc := soc.Scenario{Name: c.s.Name, Launches: c.launches}
		for _, bug := range c.bugs {
			for seed := int64(1); seed <= 6; seed++ {
				stream := prng.New(seed)
				golden, err := soc.Run(sc, soc.Config{Seed: seed, Stream: stream})
				if err != nil {
					t.Fatal(err)
				}
				buggy, err := soc.Run(sc, soc.Config{Seed: seed, Injectors: []soc.Injector{bug}, Stream: stream})
				if err != nil {
					t.Fatal(err)
				}
				runs++
				diff := debugger.NewDiff(golden, buggy)
				for k, set := range c.sets {
					where := fmt.Sprintf("scenario %d bug %d seed %d set %v", c.s.ID, bug.ID, seed, set)
					traced := tracedMap(set)
					want := refObserve(golden, buggy, traced)
					got := diff.Observation(traced)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: diff observation\n got %+v\nwant %+v", where, got, want)
					}
					if o := debugger.Observe(golden, buggy, traced); !reflect.DeepEqual(o, want) {
						t.Fatalf("%s: Observe\n got %+v\nwant %+v", where, o, want)
					}
					cfg := debugger.Config{Universe: c.universe, Flows: c.s.Flows(), Traced: set, Causes: c.causes, Seed: seed}
					wantRep, wantErr := refDebug(want, cfg)
					if wantErr != nil {
						t.Fatalf("%s: reference: %v", where, wantErr)
					}
					gotRep, err := plans[k].Debug(got, stream.Rand())
					if err != nil || !reflect.DeepEqual(gotRep, wantRep) {
						t.Fatalf("%s: plan\n got %+v (%v)\nwant %+v", where, gotRep, err, wantRep)
					}
					if rep, err := debugger.Debug(got, cfg); err != nil || !reflect.DeepEqual(rep, wantRep) {
						t.Fatalf("%s: Debug\n got %+v (%v)\nwant %+v", where, rep, err, wantRep)
					}
					debugged++
				}
			}
		}
	}
	if runs != 29*6 {
		t.Errorf("diffed %d run pairs, want %d (29 cells x 6 seeds)", runs, 29*6)
	}
	t.Logf("%d run pairs, %d observations and sessions", runs, debugged)
}

// TestDiffMatchesReferenceOnHandBuiltRuns covers what soc.Run never
// emits: indices outside [0, 2^31) (the diff numbers those apart), a name
// only one run delivers, dropped golden occurrences, occurrence gaps and
// a repeated occurrence number.
func TestDiffMatchesReferenceOnHandBuiltRuns(t *testing.T) {
	ev := func(name string, index, occ int, data uint64, dropped bool) soc.Event {
		return soc.Event{Msg: flow.IndexedMsg{Name: name, Index: index}, Occurrence: occ, Data: data, Dropped: dropped}
	}
	huge, neg := int(^uint(0)>>1), -1<<40
	golden := &soc.Result{Events: []soc.Event{
		ev("a", 1, 0, 10, false), ev("a", neg, 0, 11, false), ev("a", huge, 0, 12, false),
		ev("a", 1<<31, 0, 13, false), ev("a", 1<<31, 1, 14, false), ev("b", -1, 0, 15, true),
		ev("b", -1, 1, 16, false), ev("b", 1<<32+1, 0, 17, false), ev("c", 2, 5, 18, false),
		ev("e", 4, 0, 19, false), ev("e", 4, 0, 20, false),
	}}
	buggy := &soc.Result{
		Events: []soc.Event{
			ev("a", 1, 0, 10, false), ev("a", neg, 0, 99, false), ev("a", huge, 0, 12, false),
			ev("a", 1<<31, 1, 14, false), ev("b", -1, 0, 98, false), ev("b", -1, 1, 16, false),
			ev("b", 1, 0, 96, false), ev("d", 3, 0, 1, false), ev("c", 2, 5, 97, true),
			ev("e", 4, 0, 19, false),
		},
		Symptoms: []soc.Symptom{{Index: neg}},
	}
	for _, pair := range [][2]*soc.Result{{golden, buggy}, {buggy, golden}, {golden, golden}} {
		for _, traced := range []map[string]bool{
			{"a": true, "b": true, "c": true, "d": true, "e": true},
			{"b": true, "c": false},
		} {
			want := refObserve(pair[0], pair[1], traced)
			if got := debugger.NewDiff(pair[0], pair[1]).Observation(traced); !reflect.DeepEqual(got, want) {
				t.Errorf("traced %v:\n got %+v\nwant %+v", traced, got, want)
			}
		}
	}
}

// TestDebugErrorsMatchReference pins each error's text and its precedence
// when a config has several faults: no traced messages, then no causes,
// then traced names in order (outside the universe, or missing from the
// observation), then a duplicate cause ID.
func TestDebugErrorsMatchReference(t *testing.T) {
	s, err := opensparc.ScenarioByID(1)
	if err != nil {
		t.Fatal(err)
	}
	universe := s.Universe()
	causes, err := opensparc.Causes(1)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := soc.Run(soc.Scenario{Name: s.Name, Launches: s.Launches(2, 24)}, soc.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in, out := universe[0].Name, universe[1].Name // observed, unobserved
	obs := refObserve(golden, golden, map[string]bool{in: true})
	dup := append(append([]debugger.Cause(nil), causes...), causes[0])
	for _, c := range []struct {
		name   string
		traced []string
		causes []debugger.Cause
	}{
		{"no traced", nil, causes},
		{"no traced, no causes", nil, nil},
		{"no causes", []string{in}, nil},
		{"no causes, outside universe", []string{"zz"}, nil},
		{"outside universe", []string{in, "zz"}, causes},
		{"outside universe before missing", []string{"zz", out}, causes},
		{"missing", []string{in, out}, causes},
		{"missing before outside universe", []string{out, "zz"}, causes},
		{"missing before duplicate cause", []string{in, out}, dup},
		{"outside universe before duplicate cause", []string{"zz"}, dup},
		{"duplicate cause", []string{in}, dup},
		{"valid", []string{in, in}, causes},
	} {
		cfg := debugger.Config{Universe: universe, Flows: s.Flows(), Traced: c.traced, Causes: c.causes, Seed: 3}
		wantRep, wantErr := refDebug(obs, cfg)
		gotRep, gotErr := debugger.Debug(obs, cfg)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotRep, wantRep) {
			t.Errorf("%s: Debug = %+v, %v; want %+v, %v", c.name, gotRep, gotErr, wantRep, wantErr)
		}
	}
}

// FuzzDebug checks Debug against refDebug on T2 scenario 3 over a fuzzed
// traced subset of the universe (mask bit i traces message i), fuzzed
// Global and Focused statuses and entry counts per message (two bytes
// each), a fuzzed symptom message (an out-of-range byte means none) and
// a fuzzed seed.
func FuzzDebug(f *testing.F) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		f.Fatal(err)
	}
	universe := s.Universe()
	causes, err := opensparc.Causes(3)
	if err != nil {
		f.Fatal(err)
	}
	flows := s.Flows()
	f.Add(uint64(0b1011), []byte{1, 0, 2, 2, 0, 0, 3, 3}, byte(0), int64(1))
	f.Add(^uint64(0), []byte{4, 4, 1, 2}, byte(3), int64(-7))
	f.Add(uint64(0), []byte{}, byte(255), int64(0))
	f.Fuzz(func(t *testing.T, mask uint64, statuses []byte, symptom byte, seed int64) {
		var traced []string
		obs := debugger.Observation{
			Global:  map[string]debugger.Status{},
			Focused: map[string]debugger.Status{},
			Entries: map[string]int{},
		}
		for i, m := range universe {
			if mask&(1<<uint(i%64)) == 0 {
				continue
			}
			traced = append(traced, m.Name)
			var g, fo byte
			if 2*i+1 < len(statuses) {
				g, fo = statuses[2*i], statuses[2*i+1]
			}
			obs.Global[m.Name] = debugger.Status(g % 5)
			obs.Focused[m.Name] = debugger.Status(fo % 5)
			obs.Entries[m.Name] = int(g)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(traced))) // not the plan's order
		if int(symptom) < len(universe) {
			obs.Symptoms = []soc.Symptom{{Msg: flow.IndexedMsg{Name: universe[symptom].Name, Index: 1}}}
		}
		cfg := debugger.Config{Universe: universe, Flows: flows, Traced: traced, Causes: causes, Seed: seed}
		wantRep, wantErr := refDebug(obs, cfg)
		gotRep, gotErr := debugger.Debug(obs, cfg)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("Debug = %+v, %v; want %+v, %v", gotRep, gotErr, wantRep, wantErr)
		}
	})
}

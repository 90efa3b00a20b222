package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tracescale/internal/campaign"
	"tracescale/internal/core"
	"tracescale/internal/debugger"
	"tracescale/internal/exp"
	"tracescale/internal/inject"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/reconstruct"
	"tracescale/internal/soc"
)

// campaignSets are t2campaign's default message sets.
var campaignSets = []string{"mi", "reconstruct", "widest", "pagerank", "random"}

// campaignWorkers is the grid's worker count. One worker leaves the second
// core of the 2-core machine the benchmark is sized for to the garbage
// collector and the rest of the host: with a worker per core, a core
// taken by another process costs a grid twice the share it costs with one.
const campaignWorkers = 1

// campaignLaunchStride staggers instance launches as t2campaign does.
const campaignLaunchStride = 24

// goldenReport is t2campaign's pinned seed-1, one-rep grid report.
const goldenReport = "cmd/t2campaign/testdata/golden.json"

// buildCampaignSpec assembles the spec t2campaign builds for the full T2
// grid with the default sets: per scenario the launches, cause catalog,
// catalog bugs whose target is in the universe, one traced set per
// selector, and each set's expected reconstruction ambiguity. Sessions
// come from a private cache, so every call pays the full build as a fresh
// t2campaign process does. Spans cover the reconstruct selector and the
// ambiguity computation; other set builds are recorded as setup spans.
func buildCampaignSpec(seed int64, reg *obs.Registry, log *spanLog) (campaign.Spec, error) {
	spec := campaign.Spec{Name: "t2", Seed: seed}
	cache := pipeline.NewCacheObs(reg, 0)
	for _, s := range opensparc.Scenarios() {
		causes, err := opensparc.Causes(s.ID)
		if err != nil {
			return spec, err
		}
		universe := s.Universe()
		inUniverse := make(map[string]bool, len(universe))
		for _, m := range universe {
			inUniverse[m.Name] = true
		}
		var bugs []opensparc.Bug
		for _, b := range opensparc.Bugs() {
			if inUniverse[b.Target] {
				bugs = append(bugs, b)
			}
		}
		var ses *pipeline.Session
		log.do("setup.session", 0, -1, func() { ses, err = cache.Session(s.Instances()) })
		if err != nil {
			return spec, err
		}
		var msets []campaign.MessageSet
		ambiguity := make(map[string]float64, len(campaignSets))
		for _, name := range campaignSets {
			spanName := "setup.select." + name
			if name == "reconstruct" {
				spanName = "core.select.reconstruct"
			}
			var traced []string
			log.do(spanName, 0, -1, func() { traced, err = campaignTraced(name, ses, seed) })
			if err != nil {
				return spec, fmt.Errorf("scenario %d set %q: %w", s.ID, name, err)
			}
			msets = append(msets, campaign.MessageSet{Name: name, Traced: traced})
			tracedSet := make(map[string]bool, len(traced))
			for _, n := range traced {
				tracedSet[n] = true
			}
			var amb float64
			log.do("reconstruct.paircount", 0, -1, func() {
				amb, err = reconstruct.ExpectedAmbiguity(ses.Product(), tracedSet)
			})
			if err != nil {
				return spec, fmt.Errorf("scenario %d set %q ambiguity: %w", s.ID, name, err)
			}
			ambiguity[name] = amb
		}
		spec.Scenarios = append(spec.Scenarios, campaign.Scenario{
			Name:      fmt.Sprintf("scenario-%d", s.ID),
			Launches:  s.Launches(exp.InstancesPerFlow, campaignLaunchStride),
			Universe:  universe,
			Flows:     s.Flows(),
			Causes:    causes,
			Bugs:      bugs,
			Sets:      msets,
			Ambiguity: ambiguity,
		})
	}
	return spec, nil
}

// campaignTraced resolves one default set name to its traced messages at
// the paper's 32-bit buffer width, as t2campaign's tracedFor does.
func campaignTraced(name string, ses *pipeline.Session, seed int64) ([]string, error) {
	e := ses.Evaluator()
	var c core.Candidate
	var err error
	switch name {
	case "mi":
		res, err := ses.Select(core.Config{BufferWidth: exp.BufferWidth})
		if err != nil {
			return nil, err
		}
		return res.TracedNames(), nil
	case "reconstruct":
		res, err := ses.Select(core.Config{BufferWidth: exp.BufferWidth, Method: core.Reconstruct})
		if err != nil {
			return nil, err
		}
		return res.TracedNames(), nil
	case "widest":
		c, err = core.WidestFirstBaseline(e, exp.BufferWidth)
	case "pagerank":
		c, err = core.PageRankBaseline(e, exp.BufferWidth)
	case "random":
		c, err = core.RandomBaseline(e, exp.BufferWidth, seed)
	default:
		return nil, fmt.Errorf("unknown message set %q", name)
	}
	return c.Messages, err
}

// checkGoldenCampaign runs the seed-1, one-rep grid on spec (built at seed
// 1) and compares its JSON report byte for byte with t2campaign's golden.
func checkGoldenCampaign(spec campaign.Spec) error {
	want, err := os.ReadFile(filepath.FromSlash(goldenReport))
	if err != nil {
		return fmt.Errorf("golden campaign: %w", err)
	}
	spec.Seed, spec.Reps, spec.Workers = 1, 1, campaignWorkers
	rep, err := campaign.Run(spec)
	if err != nil {
		return fmt.Errorf("golden campaign: %w", err)
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("golden campaign: seed-1 report differs from %s (%d vs %d bytes)", goldenReport, got.Len(), len(want))
	}
	return nil
}

// campaignFailure reports why a grid's report counts as a failed op: a
// grid point ending in error, panic or timeout, or a malformed grid.
func campaignFailure(rep *campaign.Report, points int) error {
	if len(rep.Runs) != points {
		return fmt.Errorf("campaign: %d runs, want %d", len(rep.Runs), points)
	}
	for _, r := range rep.Runs {
		switch r.Outcome {
		case campaign.OutcomeSymptom, campaign.OutcomePass:
		default:
			return fmt.Errorf("campaign: point %d ended %s: %s", r.Index, r.Outcome, r.Detail)
		}
		if len(r.Scores) != len(campaignSets) {
			return fmt.Errorf("campaign: point %d has %d scores, want %d", r.Index, len(r.Scores), len(campaignSets))
		}
	}
	return nil
}

// gridPoint is one (scenario, bug) cell of the one-rep grid.
type gridPoint struct{ si, bi int }

func gridOf(spec *campaign.Spec) []gridPoint {
	var pts []gridPoint
	for si := range spec.Scenarios {
		for bi := range spec.Scenarios[si].Bugs {
			pts = append(pts, gridPoint{si, bi})
		}
	}
	return pts
}

// campaignReplay re-runs grid points through soc.Run, debugger.Observe and
// debugger.Debug with spans around each call, reproducing campaign.Run's
// RunRecords so they can be compared with the real runner's.
type campaignReplay struct {
	spec    *campaign.Spec
	points  []gridPoint
	logs    [campaignWorkers]*spanLog
	stats   [campaignWorkers]replayCounts
	idle    time.Duration
	records int
	// first is what the first replayed grid counted: its master seed is
	// the workload seed plus the warm-up length, so these simulated
	// statistics are fixed by the seed.
	first *replayCounts
}

// replayCounts are the simulated statistics and debugger work one replay
// worker saw.
type replayCounts struct {
	events, cycles          int64
	steps                   int
	eliminated, causesTotal int
	outcomes                map[string]int
}

// grid replays one full grid at master seed, workers pulling point
// indices in order, and returns its records.
func (r *campaignReplay) grid(op int, master int64) []campaign.RunRecord {
	recs := make([]campaign.RunRecord, len(r.points))
	next := make(chan int)
	var ends [campaignWorkers]time.Time
	var wg sync.WaitGroup
	for w := 0; w < campaignWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := range next {
				recs[idx] = r.point(w, op, master, idx)
			}
			ends[w] = time.Now()
		}(w)
	}
	for i := range r.points {
		next <- i
	}
	close(next)
	wg.Wait()
	last := ends[0]
	for _, e := range ends[1:] {
		if e.After(last) {
			last = e
		}
	}
	for _, e := range ends {
		r.idle += last.Sub(e)
	}
	r.records += len(recs)
	if r.first == nil {
		total := r.total()
		r.first = &total
	}
	return recs
}

// total sums the workers' counts.
func (r *campaignReplay) total() replayCounts {
	t := replayCounts{outcomes: map[string]int{}}
	for _, s := range r.stats {
		t.events += s.events
		t.cycles += s.cycles
		t.steps += s.steps
		t.eliminated += s.eliminated
		t.causesTotal += s.causesTotal
		for k, v := range s.outcomes {
			t.outcomes[k] += v
		}
	}
	return t
}

// point mirrors campaign's execute for one grid point.
func (r *campaignReplay) point(w, op int, master int64, idx int) campaign.RunRecord {
	log, st := r.logs[w], &r.stats[w]
	root := log.begin("campaign.point", op, -1)
	defer log.end(root)
	pt := r.points[idx]
	scn := &r.spec.Scenarios[pt.si]
	bug := scn.Bugs[pt.bi]
	rec := campaign.RunRecord{
		Index: idx, Scenario: scn.Name, Bug: bug.ID, BugIP: bug.IP, Target: bug.Target,
		Seed: campaign.DerivedSeed(master, idx), Attempts: 1,
	}
	sc := soc.Scenario{Name: scn.Name, Launches: scn.Launches}
	cfg := soc.Config{Seed: rec.Seed, MaxCycles: r.spec.MaxCycles}
	var golden, buggy *soc.Result
	var err error
	log.do("soc.run", op, root, func() { golden, err = soc.Run(sc, cfg) })
	if err != nil {
		rec.Outcome, rec.Detail = campaign.OutcomeError, fmt.Sprintf("golden run: %v", err)
		st.outcomes[rec.Outcome]++
		return rec
	}
	cfg.Injectors = inject.Injectors(bug)
	log.do("soc.run", op, root, func() { buggy, err = soc.Run(sc, cfg) })
	if err != nil {
		rec.Outcome, rec.Detail = campaign.OutcomeError, fmt.Sprintf("buggy run: %v", err)
		st.outcomes[rec.Outcome]++
		return rec
	}
	st.events += int64(len(golden.Events) + len(buggy.Events))
	st.cycles += int64(golden.EndCycle + buggy.EndCycle)
	rec.Events, rec.EndCycle, rec.Symptoms = len(buggy.Events), buggy.EndCycle, len(buggy.Symptoms)
	rec.Outcome = campaign.OutcomePass
	if rec.Symptoms > 0 {
		rec.Outcome = campaign.OutcomeSymptom
		rec.FirstSymptom = buggy.Symptoms[0].Kind.String()
	}
	for _, set := range scn.Sets {
		traced := make(map[string]bool, len(set.Traced))
		for _, n := range set.Traced {
			traced[n] = true
		}
		var o debugger.Observation
		log.do("debugger.observe", op, root, func() { o = debugger.Observe(golden, buggy, traced) })
		score := campaign.RunScore{Set: set.Name, Detected: len(o.AffectedMessages()) > 0}
		if len(o.Symptoms) > 0 {
			var rep *debugger.Report
			log.do("debugger.debug", op, root, func() {
				rep, err = debugger.Debug(o, debugger.Config{
					Universe: scn.Universe, Flows: scn.Flows, Traced: set.Traced, Causes: scn.Causes, Seed: rec.Seed,
				})
			})
			if err != nil {
				rec.Outcome, rec.Detail, rec.Scores = campaign.OutcomeError, fmt.Sprintf("set %q: %v", set.Name, err), nil
				st.outcomes[rec.Outcome]++
				return rec
			}
			score.Steps, score.Plausible = len(rep.Steps), len(rep.Plausible)
			st.steps += len(rep.Steps)
			st.causesTotal += rep.TotalCauses
			for i, s := range rep.Steps {
				st.eliminated += len(s.Eliminated)
				if len(s.Eliminated) > 0 {
					score.Depth = i + 1
				}
			}
			score.Localized = len(rep.Plausible) > 0
			for _, c := range rep.Plausible {
				if c.IP != bug.IP {
					score.Localized = false
					break
				}
			}
		}
		rec.Scores = append(rec.Scores, score)
	}
	st.outcomes[rec.Outcome]++
	return rec
}

// recordsJSON renders records for byte comparison.
func recordsJSON(recs []campaign.RunRecord) []byte {
	raw, err := json.Marshal(recs)
	if err != nil {
		panic("perfbench: campaign records do not marshal: " + err.Error())
	}
	return raw
}

// Package campaign is the fault-injection campaign runner of the
// evaluation's end goal (§4, Table 3): selection is only worth its silicon
// if the selected messages let a debugger localize injected bugs. A
// campaign sweeps a grid of bug × seed × scenario over the transaction-level
// simulator, feeds every failing run's projected trace — once per competing
// traced-message set — to the debugger, and aggregates a localization
// scorecard per message set: bugs detected, bugs localized to the faulty
// IP, mean investigation depth.
//
// # Determinism
//
// The runner is bit-deterministic: every grid point's simulation and
// debugging seed is derived from (campaign seed, grid index) by a splitmix64
// hash, results are written into an index-addressed slice, and aggregation
// walks that slice in ascending grid order — so the Report (and its JSON
// serialization) is byte-identical regardless of the worker count or the
// order in which runs happen to finish. Wall time appears only in
// observability metrics, never in the Report.
//
// Each grid point reads one math/rand stream seeded by DerivedSeed
// (prng.Stream): its golden run, its buggy run and each of its debugging
// sessions read the stream from its start, so each draws what a source of
// its own seeded alike would give it, and the point seeds one source.
//
// # Isolation
//
// Each grid point runs once, on the worker goroutine that picked it up: a
// panicking run is recovered there and recorded as Outcome "panic" instead
// of taking down the campaign, and the worker goes on to its next point.
// No wall clock bounds a point, because none can run away: the simulator
// stops at its cycle bound, a dropped message wedges its instance rather
// than looping, the diff makes one pass per run, and a debugging session
// takes one step per traced message.
package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"tracescale/internal/debugger"
	"tracescale/internal/flow"
	"tracescale/internal/inject"
	"tracescale/internal/obs"
	"tracescale/internal/prng"
	"tracescale/internal/soc"
)

// Spec provenances for a message set: which flow specifications drove the
// selection that produced it.
const (
	// SpecTruth marks a set selected under the ground-truth flow specs.
	SpecTruth = "truth"
	// SpecMined marks a set selected under specs mined from golden traces
	// (the mined-vs-truth campaign mode).
	SpecMined = "mined"
)

// MessageSet is one competing traced-message configuration to score — the
// paper's MI-selected set, or a structural baseline.
type MessageSet struct {
	// Name labels the set in scorecards ("mi", "widest", ...).
	Name string
	// Traced are the observable message names. Every name must belong to
	// the owning scenario's Universe.
	Traced []string
	// Spec records the provenance of the flow specifications the set was
	// selected under — SpecTruth or SpecMined. Empty means unstated
	// (legacy campaigns); when set, it must be one of the constants and
	// agree across scenarios for the same set name.
	Spec string
}

// Scenario couples one simulator workload with the debugging context the
// scorer needs: the message universe, the participating flows (for
// investigation guidance), the candidate root-cause catalog, the bugs to
// inject, and the message sets to score against each failing run.
type Scenario struct {
	Name     string
	Launches []soc.Launch
	Universe []flow.Message
	Flows    []*flow.Flow
	Causes   []debugger.Cause
	// Bugs are injected one per run; the grid covers each Reps times.
	Bugs []inject.Bug
	// Sets are the traced-message configurations scored on every run.
	// Every scenario of a Spec must declare the same set names in the same
	// order, so scorecards aggregate across scenarios.
	Sets []MessageSet
	// Ambiguity optionally carries, per set name, the expected
	// reconstruction ambiguity of that set on this scenario — the mean
	// number of executions consistent with a random execution's traced
	// projection (reconstruct.ExpectedAmbiguity). It is an analytical
	// property of (scenario, traced set), computed once at spec-build time,
	// not per run; the runner only aggregates it into the scorecards so
	// localization rates and ambiguity sit side by side. Keys must name
	// declared sets.
	Ambiguity map[string]float64
}

// Spec describes one campaign: the grid Σ_scenario (bugs × Reps).
type Spec struct {
	// Name labels the campaign in its Report.
	Name string
	// Seed is the campaign master seed every per-run seed derives from.
	Seed int64
	// Reps repeats each (scenario, bug) cell with distinct derived seeds
	// (default 1).
	Reps int
	// Workers bounds the goroutines runs are sharded across (default
	// GOMAXPROCS). Any worker count produces a byte-identical Report.
	Workers int
	// MaxCycles is the per-run simulation bound (zero = the simulator's
	// default hang threshold).
	MaxCycles uint64
	// Scenarios are the grid's workload axis.
	Scenarios []Scenario
	// Mining optionally carries, per scenario, a summary of the spec
	// mining that produced the SpecMined sets. The runner copies it into
	// the Report verbatim; empty means no mined sets (legacy reports stay
	// byte-identical).
	Mining []MiningInfo
	// Obs receives campaign.* metrics (runs started/completed, per-outcome
	// and per-bug symptom counters, wall-time histograms). Nil disables
	// instrumentation (the obs contract).
	Obs *obs.Registry

	// scorers holds, per scenario and set, what Run compiles before the
	// grid; only Run's private copy of the Spec carries it.
	scorers [][]scorer
}

// scorer is one (scenario, message set)'s debugging context, compiled
// once per campaign: the traced set and the debugger plan, or the error
// compiling it, which every symptom run of the set reports.
type scorer struct {
	traced map[string]bool
	plan   *debugger.Plan
	err    error
}

// Run outcomes.
const (
	// OutcomeSymptom: the injected bug manifested; the run was debugged.
	OutcomeSymptom = "symptom"
	// OutcomePass: the run finished clean (the bug never armed or never
	// perturbed an event).
	OutcomePass = "pass"
	// OutcomeTimeout is never recorded: Run bounds no point by wall
	// clock. It stays so callers that tally every outcome still compile.
	OutcomeTimeout = "timeout"
	// OutcomePanic: the run panicked; Detail carries the panic value.
	OutcomePanic = "panic"
	// OutcomeError: the simulator or debugger rejected the run; Detail
	// carries the error.
	OutcomeError = "error"
)

// splitmix64 is the SplitMix64 mixing function: a bijective avalanche hash,
// the standard way to derive independent PRNG streams from (seed, index)
// coordinates.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DerivedSeed returns the simulation and debugging seed of one grid point.
// It is a pure function of (campaign seed, grid index), so a run can be
// reproduced in isolation — rerun just that index — without replaying the
// campaign, and results cannot depend on worker scheduling.
func DerivedSeed(campaignSeed int64, index int) int64 {
	return int64(splitmix64(splitmix64(uint64(campaignSeed)) ^ splitmix64(uint64(index)+1)))
}

// point is one grid coordinate.
type point struct {
	si, bi, rep int
}

func (s *Spec) withDefaults() *Spec {
	out := *s
	if out.Reps <= 0 {
		out.Reps = 1
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return &out
}

// validate rejects malformed specs up front, so mid-campaign failures are
// genuine run outcomes rather than configuration mistakes.
func (s *Spec) validate() error {
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("campaign: spec has no scenarios")
	}
	var setNames []string
	for si, scn := range s.Scenarios {
		if scn.Name == "" {
			return fmt.Errorf("campaign: scenario %d has no name", si)
		}
		if len(scn.Launches) == 0 {
			return fmt.Errorf("campaign: scenario %q has no launches", scn.Name)
		}
		if len(scn.Bugs) == 0 {
			return fmt.Errorf("campaign: scenario %q has no bugs", scn.Name)
		}
		if len(scn.Causes) == 0 {
			return fmt.Errorf("campaign: scenario %q has no cause catalog", scn.Name)
		}
		if len(scn.Sets) == 0 {
			return fmt.Errorf("campaign: scenario %q has no message sets", scn.Name)
		}
		inUniverse := make(map[string]bool, len(scn.Universe))
		for _, m := range scn.Universe {
			inUniverse[m.Name] = true
		}
		names := make([]string, 0, len(scn.Sets))
		seen := make(map[string]bool, len(scn.Sets))
		for _, set := range scn.Sets {
			if set.Name == "" {
				return fmt.Errorf("campaign: scenario %q has an unnamed message set", scn.Name)
			}
			if seen[set.Name] {
				return fmt.Errorf("campaign: scenario %q declares message set %q twice", scn.Name, set.Name)
			}
			seen[set.Name] = true
			if set.Spec != "" && set.Spec != SpecTruth && set.Spec != SpecMined {
				return fmt.Errorf("campaign: scenario %q set %q has spec provenance %q, want %q or %q",
					scn.Name, set.Name, set.Spec, SpecTruth, SpecMined)
			}
			if len(set.Traced) == 0 {
				return fmt.Errorf("campaign: scenario %q set %q traces no messages", scn.Name, set.Name)
			}
			for _, n := range set.Traced {
				if !inUniverse[n] {
					return fmt.Errorf("campaign: scenario %q set %q traces %q, not in the scenario universe", scn.Name, set.Name, n)
				}
			}
			// The compared identity includes the spec provenance, so a set
			// cannot be truth-selected in one scenario and mined in another.
			names = append(names, set.Name+specSuffix(set.Spec))
		}
		for name, a := range scn.Ambiguity {
			if !seen[name] {
				return fmt.Errorf("campaign: scenario %q declares ambiguity for %q, not a declared set", scn.Name, name)
			}
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("campaign: scenario %q set %q ambiguity %g is not finite", scn.Name, name, a)
			}
			if a < 1 {
				return fmt.Errorf("campaign: scenario %q set %q ambiguity %g below 1 is impossible", scn.Name, name, a)
			}
		}
		if si == 0 {
			setNames = names
		} else if !slices.Equal(names, setNames) {
			return fmt.Errorf("campaign: scenario %q declares sets %v, want %v (every scenario must score the same sets in the same order)",
				scn.Name, names, setNames)
		}
	}
	return nil
}

// grid enumerates every point in canonical order: scenarios, then bugs,
// then reps. The position in this slice is the grid index seeds derive
// from.
func (s *Spec) grid() []point {
	var pts []point
	for si := range s.Scenarios {
		for bi := range s.Scenarios[si].Bugs {
			for rep := 0; rep < s.Reps; rep++ {
				pts = append(pts, point{si: si, bi: bi, rep: rep})
			}
		}
	}
	return pts
}

// Run executes the campaign and returns its Report. The Report is
// byte-identical for a given Spec (sans Obs and Workers) across worker
// counts and rerun orders; see the package comment for the exact guarantee.
func Run(spec Spec) (*Report, error) {
	s := spec.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	points := s.grid()
	s.scorers = make([][]scorer, len(s.Scenarios))
	for si := range s.Scenarios {
		scn := &s.Scenarios[si]
		for _, set := range scn.Sets {
			sc := scorer{traced: make(map[string]bool, len(set.Traced))}
			for _, n := range set.Traced {
				sc.traced[n] = true
			}
			sc.plan, sc.err = debugger.Compile(debugger.Config{
				Universe: scn.Universe,
				Flows:    scn.Flows,
				Traced:   set.Traced,
				Causes:   scn.Causes,
			})
			s.scorers[si] = append(s.scorers[si], sc)
		}
	}
	reg := s.Obs
	reg.Gauge("campaign.workers").Set(int64(s.Workers))
	reg.Add("campaign.grid_points", int64(len(points)))

	records := make([]RunRecord, len(points))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	workers := s.Workers
	if workers > len(points) {
		workers = len(points)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// pprof labels attribute CPU samples to the campaign pool, so
		// profiles show which workers burn the time.
		go pprof.Do(context.Background(),
			pprof.Labels("tracescale.pool", "campaign", "tracescale.worker", strconv.Itoa(w)),
			func(context.Context) {
				defer wg.Done()
				for i := range idxCh {
					records[i] = s.runPoint(i, points[i])
				}
			})
	}
	for i := range points {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	rep := &Report{
		Name: s.Name,
		Seed: s.Seed,
		Grid: GridInfo{
			Scenarios: len(s.Scenarios),
			Cells:     len(points) / s.Reps,
			Reps:      s.Reps,
			Runs:      len(points),
		},
		Sets: setNames(s),
		Runs: records,
	}
	rep.Mining = append([]MiningInfo(nil), s.Mining...)
	rep.Scorecards = scorecards(rep.Sets, records)
	for k := range rep.Scorecards {
		rep.Scorecards[k].Spec = s.Scenarios[0].Sets[k].Spec
	}
	meanAmbiguity(s, rep)
	return rep, nil
}

func setNames(s *Spec) []string {
	out := make([]string, len(s.Scenarios[0].Sets))
	for i, set := range s.Scenarios[0].Sets {
		out[i] = set.Name
	}
	return out
}

// runPoint executes one grid point on the calling worker, recording a
// panic as Outcome "panic", and records the lifecycle counters.
func (s *Spec) runPoint(idx int, pt point) (rec RunRecord) {
	reg := s.Obs
	reg.Counter("campaign.runs.started").Inc()
	var start time.Time
	if reg != nil {
		//lint:ignore clockrand registry-gated wall-time metrics; never reaches the Report
		start = time.Now()
	}
	defer func() {
		if p := recover(); p != nil {
			rec = s.baseRecord(idx, pt)
			rec.Outcome = OutcomePanic
			rec.Detail = fmt.Sprint(p)
		}
		reg.Counter("campaign.runs.completed").Inc()
		reg.Counter("campaign.outcome." + rec.Outcome).Inc()
		if rec.Symptoms > 0 {
			reg.Add("campaign.symptoms", int64(rec.Symptoms))
			reg.Add(fmt.Sprintf("campaign.bug.%d.symptoms", rec.Bug), int64(rec.Symptoms))
		}
		if reg != nil {
			//lint:ignore clockrand registry-gated wall-time metrics; never reaches the Report
			reg.Histogram("campaign.run_wall_us", runWallBounds).Observe(time.Since(start).Microseconds())
		}
	}()
	return s.execute(idx, pt)
}

// runWallBounds buckets campaign.run_wall_us: scenario runs span ~ms
// (small grids) to ~seconds (deep hang scans).
var runWallBounds = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// baseRecord fills the fields every outcome carries: the point's identity
// and its one attempt.
func (s *Spec) baseRecord(idx int, pt point) RunRecord {
	scn := &s.Scenarios[pt.si]
	bug := scn.Bugs[pt.bi]
	return RunRecord{
		Index:    idx,
		Scenario: scn.Name,
		Bug:      bug.ID,
		BugIP:    bug.IP,
		Target:   bug.Target,
		Rep:      pt.rep,
		Seed:     DerivedSeed(s.Seed, idx),
		Attempts: 1,
	}
}

// execute is one full run: golden and buggy simulations at the derived
// seed, one diff of the pair, then one observation + debugging session per
// message set. The runs and the sessions read one stream of the seed, each
// from its start, so the point seeds one source.
func (s *Spec) execute(idx int, pt point) RunRecord {
	scn := &s.Scenarios[pt.si]
	bug := scn.Bugs[pt.bi]
	rec := s.baseRecord(idx, pt)
	sc := soc.Scenario{Name: scn.Name, Launches: scn.Launches}
	stream := prng.New(rec.Seed)
	cfg := soc.Config{Seed: rec.Seed, MaxCycles: s.MaxCycles, Stream: stream}
	golden, err := soc.Run(sc, cfg)
	if err != nil {
		rec.Outcome = OutcomeError
		rec.Detail = fmt.Sprintf("golden run: %v", err)
		return rec
	}
	cfg.Injectors = inject.Injectors(bug)
	buggy, err := soc.Run(sc, cfg)
	if err != nil {
		rec.Outcome = OutcomeError
		rec.Detail = fmt.Sprintf("buggy run: %v", err)
		return rec
	}
	rec.Events = len(buggy.Events)
	rec.EndCycle = buggy.EndCycle
	rec.Symptoms = len(buggy.Symptoms)
	if rec.Symptoms > 0 {
		rec.Outcome = OutcomeSymptom
		rec.FirstSymptom = buggy.Symptoms[0].Kind.String()
	} else {
		rec.Outcome = OutcomePass
	}
	diff := debugger.NewDiff(golden, buggy)
	for k, set := range scn.Sets {
		score, err := scoreSet(set.Name, s.scorers[pt.si][k], bug, diff, stream)
		if err != nil {
			rec.Outcome = OutcomeError
			rec.Detail = fmt.Sprintf("set %q: %v", set.Name, err)
			rec.Scores = nil
			return rec
		}
		rec.Scores = append(rec.Scores, score)
	}
	return rec
}

// scoreSet projects the run onto one traced-message set and scores what a
// debugger armed with just those messages achieves. Detection follows the
// paper's Table-5 notion — the bug is detected when it affects at least one
// traced message anywhere in the run. Localization and depth are only
// meaningful for failing runs: the session localized the bug when every
// surviving plausible cause names the injected bug's IP, and Depth is the
// 1-based index of the last investigation step that still eliminated a
// cause (how deep the narration went before the cause set stopped
// shrinking). The session reads stream from its start.
func scoreSet(name string, sc scorer, bug inject.Bug, diff *debugger.Diff, stream *prng.Stream) (RunScore, error) {
	o := diff.Observation(sc.traced)
	score := RunScore{Set: name, Detected: len(o.AffectedMessages()) > 0}
	if len(o.Symptoms) == 0 {
		return score, nil
	}
	if sc.err != nil {
		return score, sc.err
	}
	rep, err := sc.plan.Debug(o, stream.Rand())
	if err != nil {
		return score, err
	}
	score.Steps = len(rep.Steps)
	score.Plausible = len(rep.Plausible)
	for i, st := range rep.Steps {
		if len(st.Eliminated) > 0 {
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
	return score, nil
}

// scorecards aggregates per-set scores across the whole grid. Records are
// walked in ascending grid index, so aggregation is independent of run
// completion order.
func scorecards(sets []string, records []RunRecord) []Scorecard {
	cards := make([]Scorecard, len(sets))
	for k, name := range sets {
		card := Scorecard{Set: name}
		bugsDetected := make(map[int]bool)
		bugsLocalized := make(map[int]bool)
		depthSum, plausibleSum := 0, 0
		for _, r := range records {
			if len(r.Scores) <= k {
				continue // panicked or errored runs carry no scores
			}
			sc := r.Scores[k]
			if sc.Detected {
				card.RunsDetected++
				bugsDetected[r.Bug] = true
			}
			if r.Outcome != OutcomeSymptom {
				continue
			}
			card.SymptomRuns++
			depthSum += sc.Depth
			plausibleSum += sc.Plausible
			if sc.Localized {
				card.RunsLocalized++
				bugsLocalized[r.Bug] = true
			}
		}
		card.BugsDetected = len(bugsDetected)
		card.BugsLocalized = len(bugsLocalized)
		if card.SymptomRuns > 0 {
			card.MeanDepth = float64(depthSum) / float64(card.SymptomRuns)
			card.MeanPlausible = float64(plausibleSum) / float64(card.SymptomRuns)
		}
		cards[k] = card
	}
	return cards
}

// meanAmbiguity folds the scenarios' analytical ambiguity declarations
// into the scorecards: per set, the mean over the scenarios that declare
// it, walked in spec order so the value is bit-deterministic. Sets no
// scenario declares keep the zero value (absent, not "ambiguity 0" —
// real ambiguity is never below 1).
func meanAmbiguity(s *Spec, rep *Report) {
	for k, name := range rep.Sets {
		sum, n := 0.0, 0
		for i := range s.Scenarios {
			if a, ok := s.Scenarios[i].Ambiguity[name]; ok {
				sum += a
				n++
			}
		}
		if n > 0 {
			rep.Scorecards[k].MeanAmbiguity = sum / float64(n)
		}
	}
}

// specSuffix renders a set's provenance for identity comparison — empty
// provenance adds nothing, so legacy specs compare exactly as before.
func specSuffix(spec string) string {
	if spec == "" {
		return ""
	}
	return "(" + spec + ")"
}

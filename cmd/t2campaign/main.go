// Command t2campaign runs fault-injection campaigns over the OpenSPARC T2
// usage scenarios and scores how well competing traced-message sets let the
// debugger localize the injected bugs — the §4 claim, at campaign scale:
// the MI-selected 32-bit set localizes bugs the structural baselines miss.
//
//	t2campaign                      # full grid: all scenarios × catalog bugs
//	t2campaign -scenario 2          # one usage scenario
//	t2campaign -reps 3 -seed 7      # repeat each cell, reseeded per run
//	t2campaign -sets mi,widest      # score a subset of the message sets
//	t2campaign -json report.json    # write the full deterministic report
//	t2campaign -workers 8           # shard runs (report is identical anyway)
//	t2campaign -metrics-json m.json # dump the run's observability counters
//
// Message sets: mi (the paper's Steps 1-3 selection), widest (widest-first
// structural baseline), pagerank (PRNet-style message-dependency PageRank),
// random (seeded random feasible set), or any registered selection method
// name (exhaustive, knapsack, greedy, max-coverage, branch-bound,
// reconstruct) to score that Step-2 strategy's selection, e.g.
// -sets mi,greedy,branch-bound. The default grid scores mi against the
// ambiguity-minimizing reconstruct selection and the structural baselines,
// and every scorecard carries the set's expected reconstruction ambiguity
// (mean.amb) next to its localization rates — the MI-vs-ambiguity
// head-to-head.
//
// The mined-vs-truth mode (-mined) additionally mines flow specifications
// from golden traces of each scenario (internal/mine corpus inference),
// reruns every requested selector under the mined specs, and scores the
// "mined:" sets head-to-head against the ground-truth ones on the same
// grid — how much localization power survives when the flow collateral is
// bootstrapped from silicon observation instead of architects' documents.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tracescale/internal/campaign"
	"tracescale/internal/core"
	"tracescale/internal/exp"
	"tracescale/internal/flow"
	"tracescale/internal/mine"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/reconstruct"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "t2campaign:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// launchStride staggers instance start cycles, matching the exp harness.
const launchStride = 24

// run executes one t2campaign invocation against the given argument list,
// writing the scorecard summary to w. main is a thin exit-code shim around
// it, so tests drive the full CLI in-process with a bytes.Buffer.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("t2campaign", flag.ContinueOnError)
	var (
		scenario = fs.Int("scenario", 0, "run one usage scenario (1-3; 0 = all)")
		reps     = fs.Int("reps", 1, "repetitions per (scenario, bug) cell, reseeded per run")
		seed     = fs.Int64("seed", 1, "campaign master seed")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); any value yields the same report")
		sets     = fs.String("sets", "mi,reconstruct,widest,pagerank,random", "comma-separated message sets to score")
		jsonPath = fs.String("json", "", "write the full deterministic JSON report to this file")
		metrics  = fs.String("metrics-json", "", "write the observability snapshot (campaign.*, and the set building's pipeline.*, core.*, interleave.*, reconstruct.*) as JSON to this file")
		mined    = fs.Bool("mined", false, "also score every set selected under specs mined from golden traces (mined-vs-truth)")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	var ids []int
	if *scenario == 0 {
		for _, s := range opensparc.Scenarios() {
			ids = append(ids, s.ID)
		}
	} else {
		ids = []int{*scenario}
	}
	setNames := strings.Split(*sets, ",")
	// The sessions the sets are selected in record into the same registry
	// as the campaign, so the snapshot covers set building too.
	reg := obs.NewRegistry()
	spec, err := buildSpec(pipeline.NewCacheObs(reg, 0), ids, setNames, *seed, *mined)
	if err != nil {
		return err
	}
	spec.Reps = *reps
	spec.Workers = *workers
	spec.Obs = reg

	rep, err := campaign.Run(spec)
	if err != nil {
		return err
	}
	renderSummary(w, rep)
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			return err
		}
	}
	if *metrics != "" {
		return reg.WriteFile(*metrics)
	}
	return nil
}

// buildSpec assembles the campaign over the requested T2 usage scenarios:
// per scenario, the workload launches, cause catalog, the catalog bugs
// whose target message exists in the scenario universe, and one traced
// message set per requested selector. With mined set, every selector is
// additionally run under flow specs mined from golden traces of the
// scenario, contributing a "mined:"-prefixed set scored on the same runs.
func buildSpec(cache *pipeline.Cache, scenarioIDs []int, setNames []string, seed int64, mined bool) (campaign.Spec, error) {
	spec := campaign.Spec{Name: "t2", Seed: seed, MaxCycles: 0}
	for _, id := range scenarioIDs {
		s, err := opensparc.ScenarioByID(id)
		if err != nil {
			return spec, err
		}
		causes, err := opensparc.Causes(id)
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
		ses, err := cache.Session(s.Instances())
		if err != nil {
			return spec, err
		}
		var minedSes *pipeline.Session
		if mined {
			traces, err := exp.GoldenCorpus(s, seed)
			if err != nil {
				return spec, fmt.Errorf("scenario %d: mining: %w", s.ID, err)
			}
			res, err := mine.Corpus(traces, mine.Options{})
			if err != nil {
				return spec, fmt.Errorf("scenario %d: mining: %w", s.ID, err)
			}
			flows, err := res.Materialize(fmt.Sprintf("mined-s%d-", s.ID))
			if err != nil {
				return spec, fmt.Errorf("scenario %d: mining: %w", s.ID, err)
			}
			insts := make([]flow.Instance, len(flows))
			for i, f := range flows {
				insts[i] = flow.Instance{Flow: f, Index: 1}
			}
			minedSes, err = cache.Session(insts)
			if err != nil {
				return spec, fmt.Errorf("scenario %d: mined session: %w", s.ID, err)
			}
			spec.Mining = append(spec.Mining, campaign.MiningInfo{
				Scenario: fmt.Sprintf("scenario-%d", s.ID),
				Traces:   res.Traces,
				Slices:   res.Slices,
				Flows:    len(res.Flows),
				Shared:   res.Shared,
				Splits:   res.Splits,
			})
		}
		var msets []campaign.MessageSet
		ambiguity := make(map[string]float64, len(setNames))
		addSet := func(setName, provenance string, from *pipeline.Session) error {
			traced, err := tracedFor(setName, from, seed)
			if err != nil {
				return err
			}
			name := setName
			if provenance == campaign.SpecMined {
				name = "mined:" + setName
			}
			ms := campaign.MessageSet{Name: name, Traced: traced}
			if mined {
				ms.Spec = provenance
			}
			msets = append(msets, ms)
			tracedSet := make(map[string]bool, len(traced))
			for _, n := range traced {
				tracedSet[n] = true
			}
			// The analytical ambiguity of the set on this scenario — what the
			// reconstruction engine would face per failing run. The T2
			// products all sit under the pair-DP state limit, so this is
			// exact. Mined sets are evaluated on the TRUTH product too: the
			// reconstruction a debugger runs happens against the real design,
			// so that is the ambiguity comparable across provenances.
			amb, err := reconstruct.ExpectedAmbiguity(ses.Product(), tracedSet)
			if err != nil {
				return fmt.Errorf("scenario %d set %q ambiguity: %w", s.ID, name, err)
			}
			ambiguity[name] = amb
			return nil
		}
		for _, name := range setNames {
			if err := addSet(name, campaign.SpecTruth, ses); err != nil {
				return spec, err
			}
			if mined {
				if err := addSet(name, campaign.SpecMined, minedSes); err != nil {
					return spec, err
				}
			}
		}
		spec.Scenarios = append(spec.Scenarios, campaign.Scenario{
			Name:      fmt.Sprintf("scenario-%d", s.ID),
			Launches:  s.Launches(exp.InstancesPerFlow, launchStride),
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

// tracedFor resolves one selector name to its traced message set against
// the scenario's pipeline session, all at the paper's 32-bit buffer width.
func tracedFor(name string, ses *pipeline.Session, seed int64) ([]string, error) {
	e := ses.Evaluator()
	switch name {
	case "mi":
		res, err := ses.Select(core.Config{BufferWidth: exp.BufferWidth})
		if err != nil {
			return nil, err
		}
		return res.TracedNames(), nil
	case "widest":
		c, err := core.WidestFirstBaseline(e, exp.BufferWidth)
		if err != nil {
			return nil, err
		}
		return c.Messages, nil
	case "pagerank":
		c, err := core.PageRankBaseline(e, exp.BufferWidth)
		if err != nil {
			return nil, err
		}
		return c.Messages, nil
	case "random":
		c, err := core.RandomBaseline(e, exp.BufferWidth, seed)
		if err != nil {
			return nil, err
		}
		return c.Messages, nil
	}
	// Any registered core selection method is a valid set name too: "mi"
	// under that Step-2 strategy (e.g. knapsack, greedy, branch-bound), so
	// campaigns can score the scalable selectors against the exhaustive
	// reference.
	m, err := core.ParseMethod(name)
	if err != nil {
		return nil, fmt.Errorf("unknown message set %q (have mi, widest, pagerank, random, or a method: %s)",
			name, strings.Join(core.MethodNames(), ", "))
	}
	res, err := ses.Select(core.Config{BufferWidth: exp.BufferWidth, Method: m})
	if err != nil {
		return nil, err
	}
	return res.TracedNames(), nil
}

// renderSummary prints the campaign header, outcome tally, and the per-set
// localization scorecard.
func renderSummary(w io.Writer, rep *campaign.Report) {
	fmt.Fprintf(w, "t2 campaign: seed %d, %d scenario(s), %d cell(s) x %d rep(s) = %d run(s)\n",
		rep.Seed, rep.Grid.Scenarios, rep.Grid.Cells, rep.Grid.Reps, rep.Grid.Runs)
	tally := make(map[string]int)
	for _, r := range rep.Runs {
		tally[r.Outcome]++
	}
	outcomes := make([]string, 0, len(tally))
	for o := range tally {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	fmt.Fprintf(w, "outcomes:")
	for _, o := range outcomes {
		fmt.Fprintf(w, " %s %d", o, tally[o])
	}
	fmt.Fprintln(w)
	for _, mi := range rep.Mining {
		fmt.Fprintf(w, "mining: %s: %d flows from %d slices across %d traces",
			mi.Scenario, mi.Flows, mi.Slices, mi.Traces)
		if len(mi.Shared) > 0 {
			fmt.Fprintf(w, " (censored shared: %s)", strings.Join(mi.Shared, ", "))
		}
		if mi.Splits > 0 {
			fmt.Fprintf(w, " (%d repair splits)", mi.Splits)
		}
		fmt.Fprintln(w)
	}
	withSpec := false
	for _, c := range rep.Scorecards {
		if c.Spec != "" {
			withSpec = true
			break
		}
	}
	if withSpec {
		fmt.Fprintf(w, "%-18s %-6s %8s %9s %9s %9s %9s %11s %11s %10s\n",
			"set", "spec", "symptom", "det.runs", "loc.runs", "det.bugs", "loc.bugs", "mean.depth", "mean.plaus", "mean.amb")
	} else {
		fmt.Fprintf(w, "%-12s %8s %9s %9s %9s %9s %11s %11s %10s\n",
			"set", "symptom", "det.runs", "loc.runs", "det.bugs", "loc.bugs", "mean.depth", "mean.plaus", "mean.amb")
	}
	for _, c := range rep.Scorecards {
		if withSpec {
			fmt.Fprintf(w, "%-18s %-6s %8d %9d %9d %9d %9d %11.2f %11.2f %10.2f\n",
				c.Set, c.Spec, c.SymptomRuns, c.RunsDetected, c.RunsLocalized,
				c.BugsDetected, c.BugsLocalized, c.MeanDepth, c.MeanPlausible, c.MeanAmbiguity)
			continue
		}
		fmt.Fprintf(w, "%-12s %8d %9d %9d %9d %9d %11.2f %11.2f %10.2f\n",
			c.Set, c.SymptomRuns, c.RunsDetected, c.RunsLocalized,
			c.BugsDetected, c.BugsLocalized, c.MeanDepth, c.MeanPlausible, c.MeanAmbiguity)
	}
}

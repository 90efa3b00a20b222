package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"tracescale/internal/campaign"
	"tracescale/internal/core"
	"tracescale/internal/exp"
	"tracescale/internal/flow"
	"tracescale/internal/mine"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/soc"
	"tracescale/internal/spec"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
)

// Golden-corpus shape, as t2campaign -mined simulates it: corpusTraces
// traces per corpus, every flow corpusTags transactions deep, launch
// cycles jittered by up to corpusJitter.
const (
	corpusTraces = 3
	corpusTags   = 8
	corpusJitter = 13
	// corporaPerScenario distinct-seed corpora of each T2 scenario form
	// the pool ops cycle through.
	corporaPerScenario = 48
	mineSetups         = 5
	mineHeapEvery      = 2
)

// corpus is one golden trace corpus of a T2 scenario, as trace text.
type corpus struct {
	scenario int
	texts    [][]byte
}

// simulateCorpus runs corpusTraces golden simulations of scenario s with
// jittered launches, captures each at full width with no wraparound, and
// writes it in the trace-file format.
func simulateCorpus(s opensparc.Scenario, seed int64) (*corpus, error) {
	var rules []tbuf.Rule
	width := 0
	for _, m := range s.Universe() {
		rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
		width += m.Width
	}
	plan, err := tbuf.NewCapturePlan(rules)
	if err != nil {
		return nil, err
	}
	c := &corpus{scenario: s.ID}
	for r := 0; r < corpusTraces; r++ {
		runSeed := campaign.DerivedSeed(seed, r)
		jit := rand.New(rand.NewSource(runSeed))
		var launches []soc.Launch
		for _, f := range s.Flows() {
			for k := 1; k <= corpusTags; k++ {
				launches = append(launches, soc.Launch{Flow: f, Index: k, Start: uint64(8*(k-1) + jit.Intn(corpusJitter))})
			}
		}
		res, err := soc.Run(soc.Scenario{Name: s.Name, Launches: launches}, soc.Config{Seed: runSeed, MaxLatency: 20})
		if err != nil {
			return nil, err
		}
		if !res.Passed() {
			return nil, fmt.Errorf("golden corpus run of scenario %d failed: %v", s.ID, res.Symptoms)
		}
		mon := soc.NewMonitor(plan, tbuf.New(width, len(res.Events)+1), nil)
		if err := mon.Consume(res.Events); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, mon.Buffer().Entries()); err != nil {
			return nil, err
		}
		c.texts = append(c.texts, buf.Bytes())
	}
	return c, nil
}

// corpusPool simulates corporaPerScenario corpora of each T2 scenario from
// distinct seeds.
func corpusPool(seed int64) ([]*corpus, error) {
	var pool []*corpus
	for k := 0; k < corporaPerScenario; k++ {
		for _, s := range opensparc.Scenarios() {
			c, err := simulateCorpus(s, campaign.DerivedSeed(seed, 1<<20+s.ID*64+k))
			if err != nil {
				return nil, err
			}
			pool = append(pool, c)
		}
	}
	return pool, nil
}

// mined is one op's output.
type mined struct {
	c   *corpus
	res *mine.Result
	sel *core.Result
}

// ingest is one op: parse the corpus, mine it, materialize the flows and
// select under the mined spec on a fresh, uncached session. A nil log
// records no spans.
func ingest(c *corpus, op int, log *spanLog, reg *obs.Registry, n *mineCounts) (*mined, error) {
	root := log.begin("mine.ingest", op, -1)
	defer log.end(root)
	traces := make([][]tbuf.Entry, len(c.texts))
	for k, text := range c.texts {
		var err error
		log.do("trace.parse", op, root, func() { traces[k], err = trace.Parse(bytes.NewReader(text)) })
		if err != nil {
			return nil, err
		}
		n.bytes += len(text)
		n.lines += len(traces[k])
	}
	var res *mine.Result
	var err error
	log.do("mine.corpus", op, root, func() { res, err = mine.Corpus(traces, mine.Options{}) })
	if err != nil {
		return nil, err
	}
	var flows []*flow.Flow
	log.do("mine.materialize", op, root, func() { flows, err = res.Materialize(fmt.Sprintf("mined-s%d-", c.scenario)) })
	if err != nil {
		return nil, err
	}
	insts := make([]flow.Instance, len(flows))
	for k, f := range flows {
		insts[k] = flow.Instance{Flow: f, Index: 1}
	}
	var sel *core.Result
	log.do("mine.select", op, root, func() {
		var ses *pipeline.Session
		if ses, err = pipeline.NewSessionObs(insts, reg); err == nil {
			sel, err = ses.Select(core.Config{BufferWidth: exp.BufferWidth})
		}
	})
	if err != nil {
		return nil, err
	}
	n.slices += res.Slices
	n.splits += res.Splits
	n.accepted += len(res.Flows)
	n.censored += len(res.Shared) + len(res.LowSupport)
	return &mined{c: c, res: res, sel: sel}, nil
}

// mineCounts are the work counts of a phase's ingests.
type mineCounts struct {
	bytes, lines                       int
	slices, splits, accepted, censored int
}

// checkMined verifies one op's output: the mined spec round-trips through
// spec.Write, spec.Parse and Build; scenario 1's shared siincu is
// censored; and the selection fits the paper's 32-bit buffer with names
// from the mined universe.
func checkMined(m *mined) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	name := fmt.Sprintf("mined-s%d-", m.c.scenario)
	sc, err := m.res.Scenario(name, 1, exp.BufferWidth)
	if err != nil {
		return zero, err
	}
	var doc bytes.Buffer
	if err := spec.Write(&doc, sc); err != nil {
		return zero, err
	}
	back, err := spec.Parse(bytes.NewReader(doc.Bytes()))
	if err != nil {
		return zero, fmt.Errorf("mined spec does not parse: %w", err)
	}
	insts, err := back.Build()
	if err != nil {
		return zero, fmt.Errorf("mined spec does not build: %w", err)
	}
	if len(insts) != len(m.res.Flows) {
		return zero, fmt.Errorf("mined spec builds %d instances from %d flows", len(insts), len(m.res.Flows))
	}
	if m.c.scenario == 1 && !slices.Contains(m.res.Shared, opensparc.MsgSIINCU) {
		return zero, fmt.Errorf("scenario 1 mining did not censor %s (shared %v)", opensparc.MsgSIINCU, m.res.Shared)
	}
	flows := make([]*flow.Flow, len(insts))
	for k, in := range insts {
		flows[k] = in.Flow
	}
	if err := checkSelection(responseOf(back.Name, core.Config{BufferWidth: exp.BufferWidth}, m.sel),
		core.Exhaustive, exp.BufferWidth, universeOf(flows)); err != nil {
		return zero, err
	}
	doc.WriteString(fmt.Sprint(m.sel.Selected, m.sel.Packed, m.sel.Gain))
	return sha256.Sum256(doc.Bytes()), nil
}

// runTraceMine is the trace-mine workload: one client ingests the corpus
// pool in rounds, one op ingesting one corpus of each T2 scenario. The
// scenarios differ several-fold in cost, so a round — not a single corpus
// — is the op whose latency percentiles are reported: a percentile of
// single ingests falls between the scenarios' costs and jumps with small
// shifts in their shares. Nothing on this path memoizes, so cycling the
// pool gets no cache credit.
func runTraceMine(cfg runConfig) (*report, error) {
	r := &report{tailQ: 0.9}
	var pool []*corpus
	err := r.setUp(mineSetups, cfg.trace, func() (err error) {
		pool, err = corpusPool(cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	per := len(opensparc.Scenarios())
	rounds := len(pool) / per
	r.notes = append(r.notes, fmt.Sprintf("corpus pool: %d corpora of %d traces, %d rounds of %d", len(pool), corpusTraces, rounds, per))

	// Ingesting a corpus is deterministic, so every ingest of pool[k]
	// must reproduce the first one's output; refs holds those digests.
	refs := make([]*[sha256.Size]byte, len(pool))
	checked := func(k int, m *mined) error {
		d, err := checkMined(m)
		if err != nil {
			return fmt.Errorf("scenario %d: %w", m.c.scenario, err)
		}
		if refs[k] == nil {
			refs[k] = &d
		} else if *refs[k] != d {
			return fmt.Errorf("ingest of corpus %d differs from its earlier ingest", k)
		}
		return nil
	}
	// round ingests round i — pool[per·(i mod rounds)] onwards, one corpus
	// of each scenario — timing the ingests and checking each afterwards.
	round := func(i int, log *spanLog, reg *obs.Registry, n *mineCounts) opResult {
		res := opResult{class: "mine"}
		first := per * (i % rounds)
		out := make([]*mined, per)
		var err error
		res.ms = timeMS(func() {
			for s := 0; s < per && err == nil; s++ {
				out[s], err = ingest(pool[first+s], i, log, reg, n)
			}
		})
		for s := 0; s < per && err == nil; s++ {
			err = checked(first+s, out[s])
		}
		res.err = err
		return res
	}
	var n mineCounts
	op := func(_, i int) opResult { return round(i, nil, nil, &n) }
	// The warm-up ingests the pool once, reading the live heap after
	// every mineHeapEvery rounds.
	warm := warmSpec{ops: rounds, every: mineHeapEvery}
	r.warmUp(warm, op)
	r.timed = closedLoop(cfg.clients, warm.ops, cfg.duration(), op)
	if !cfg.trace {
		return r, nil
	}

	reg := obs.NewRegistry()
	log := newSpanLog(time.Now())
	var tn mineCounts
	r.traced = closedLoop(cfg.clients, warm.ops, cfg.duration(), func(_, i int) opResult {
		return round(i, log, reg, &tn)
	})
	lt := aggregate(log)
	snap := reg.Snapshot()
	L := newLayers()
	L["trace.parse_ms"] = ms(lt.busy["trace.parse"])
	L["trace.bytes"] = float64(tn.bytes)
	L["trace.lines"] = float64(tn.lines)
	L["mine.corpus_ms"] = ms(lt.busy["mine.corpus"])
	L["mine.materialize_ms"] = ms(lt.busy["mine.materialize"])
	L["mine.slices"] = float64(tn.slices)
	L["mine.split_share"] = share(float64(tn.splits), float64(tn.accepted))
	L["mine.censored"] = float64(tn.censored)
	L["mine.select_ms"] = ms(lt.busy["mine.select"])
	L["interleave.build_ms"] = float64(snap["interleave.build_ns"]) / 1e6
	L["interleave.states"] = float64(snap["interleave.states"])
	L["interleave.edges"] = float64(snap["interleave.edges"])
	L["core.select_runs"] = float64(snap["core.select.runs"])
	var self int64
	for _, v := range lt.self {
		self += v
	}
	r.finishTrace(L, self, 1, "trace-mine", cfg, log)
	return r, nil
}

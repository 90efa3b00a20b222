package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"tracescale/internal/campaign"
	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/opensparc"
	"tracescale/internal/serve"
	"tracescale/internal/spec"
	"tracescale/internal/synth"
)

// splitMix is a SplitMix64 math/rand source: unlike rand.NewSource it
// costs nothing to create, so every generated item gets its own stream
// without the generator weighing on the op loop.
type splitMix uint64

func (s *splitMix) Seed(seed int64) { *s = splitMix(seed) }
func (s *splitMix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitMix) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rngFor is the generator stream of item i: a pure function of (seed, i),
// so clients can draw items in any order and still see the same inputs.
func rngFor(seed int64, i int) *rand.Rand {
	src := splitMix(campaign.DerivedSeed(seed, i))
	return rand.New(&src)
}

// slot is position i's rank within its block of n positions under a
// seeded shuffle of the block. Mixes drawn by slot hold their proportions
// exactly in every block instead of only on average, which keeps
// percentiles steady across seeds.
func slot(seed int64, i, n int) int {
	return rngFor(seed^0x5bd1e995, i/n).Perm(n)[i%n]
}

// request is one generated HTTP request with what its checks need.
type request struct {
	i    int
	path string
	body []byte
	// budget is the selection width; universe the scenario's messages.
	budget   int
	universe map[string]flow.Message
	method   core.Method
	// batch holds the option sets of a /select/batch request.
	batch []serve.Options
	// pool is the serve-warm scenario a request reads (-1 for select-cold).
	pool int
	// projection of a /reconstruct request.
	traced   []string
	observed []flow.IndexedMsg
}

// universeOf maps every message name of the flows to its message.
func universeOf(flows []*flow.Flow) map[string]flow.Message {
	u := map[string]flow.Message{}
	for _, f := range flows {
		for _, m := range f.Messages() {
			u[m.Name] = m
		}
	}
	return u
}

// t2Shape is a T2 flow subset with an instance count per flow.
type t2Shape struct {
	flows  []*flow.Flow
	copies []int
	states int
}

// productStates is the reachable state count of the interleaving of
// components, each given as (non-atomic, atomic) state counts: tuples of
// component states with at most one component in an atomic state.
func productStates(na, a []int) int {
	prod := 1
	for _, v := range na {
		prod *= v
	}
	total := prod
	for i := range na {
		rest := 1
		for j, v := range na {
			if j != i {
				rest *= v
			}
		}
		total += a[i] * rest
	}
	return total
}

func atomicCounts(f *flow.Flow) (na, a int) {
	for s := 0; s < f.NumStates(); s++ {
		if f.IsAtomic(s) {
			a++
		} else {
			na++
		}
	}
	return na, a
}

// t2Shapes enumerates every subset of the T2 flows with one or two
// instances per flow, split into products of 10²–2.5·10³ states and of
// 5·10³–9·10³ states.
func t2Shapes() (small, large []t2Shape) {
	catalog := opensparc.Flows()
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	for mask := 1; mask < 1<<len(names); mask++ {
		var flows []*flow.Flow
		for b, n := range names {
			if mask&(1<<b) != 0 {
				flows = append(flows, catalog[n])
			}
		}
		if len(flows) < 2 {
			continue
		}
		for cm := 0; cm < 1<<len(flows); cm++ {
			sh := t2Shape{flows: flows}
			var na, a []int
			for k, f := range flows {
				c := 1 + (cm>>k)&1
				sh.copies = append(sh.copies, c)
				n, at := atomicCounts(f)
				for j := 0; j < c; j++ {
					na, a = append(na, n), append(a, at)
				}
			}
			sh.states = productStates(na, a)
			switch {
			case sh.states >= 100 && sh.states <= 2500:
				small = append(small, sh)
			case sh.states >= 5000 && sh.states <= 9000:
				large = append(large, sh)
			}
		}
	}
	return small, large
}

// coldGen generates select-cold's stream: every request is an instance set
// never sent before (instance indices are fresh per request), mixing T2
// flow subsets, replicated CacheCoherence and branching synthetic flows.
// Every block of 100 requests holds exactly one each of a large T2
// subset, CacheCoherence ×7 and five 6-state synthetic chains (products of
// ~10⁴ states), then 39 small T2 subsets, 24 CacheCoherence ×3–6 and 34
// small branching synthetic sets (10²–10³ states). The large kinds have
// fixed or narrowly banded sizes, so their few samples per run cost the
// same from seed to seed.
type coldGen struct {
	seed         int64
	small, large []t2Shape
	cc           *flow.Flow
}

// coldIndexStride spaces the instance indices of consecutive requests;
// no request has more instances than this.
const coldIndexStride = 16

func newColdGen(seed int64) *coldGen {
	small, large := t2Shapes()
	return &coldGen{seed: seed, small: small, large: large, cc: flow.CacheCoherence()}
}

// request generates request i.
func (g *coldGen) request(i int) (*request, error) {
	rng := rngFor(g.seed, i)
	kind := slot(g.seed, i, 100)
	base := 1 + coldIndexStride*i
	var flows []*flow.Flow
	var insts []flow.Instance
	replicate := func(f *flow.Flow, n int) {
		flows = append(flows, f)
		for k := 0; k < n; k++ {
			insts = append(insts, flow.Instance{Flow: f, Index: base + len(insts)})
		}
	}
	t2 := func(shapes []t2Shape) {
		sh := shapes[rng.Intn(len(shapes))]
		for k, f := range sh.flows {
			replicate(f, sh.copies[k])
		}
	}
	synthFlows := func(n int, p synth.Params) error {
		for k := 0; k < n; k++ {
			f, err := synth.Flow(fmt.Sprintf("f%d", k), p, rng)
			if err != nil {
				return err
			}
			replicate(f, 1)
		}
		return nil
	}
	var err error
	switch {
	case kind == 0:
		t2(g.large)
	case kind == 1:
		replicate(g.cc, 7)
	case kind == 2:
		err = synthFlows(5, synth.Params{States: 6})
	case kind < 42:
		t2(g.small)
	case kind < 66:
		replicate(g.cc, 3+rng.Intn(4))
	default:
		err = synthFlows(2+rng.Intn(3), synth.Params{States: 4 + rng.Intn(3), Branch: 0.3 + 0.2*rng.Float64()})
	}
	if err != nil {
		return nil, err
	}
	u := universeOf(flows)
	method := core.Exhaustive
	if len(u) > 14 {
		method = []core.Method{core.Knapsack, core.BranchBound}[rng.Intn(2)]
	}
	width := []int{16, 24, 32, 40}[rng.Intn(4)]
	sc := spec.FromFlows(fmt.Sprintf("cold-%d", i), flows, insts, width)
	body, err := json.Marshal(serve.Request{Scenario: *sc, Options: serve.Options{Method: method.String()}})
	if err != nil {
		return nil, err
	}
	return &request{i: i, path: "/select", body: body, budget: width, universe: u, method: method, pool: -1}, nil
}

// warmScenario is one scenario of serve-warm's pool.
type warmScenario struct {
	sc       *spec.Scenario
	raw      []byte // the scenario's JSON object
	universe map[string]flow.Message
	minWidth int
	// product draws random executions for /reconstruct observations;
	// traced is the set /select returned for the scenario at its own
	// buffer width.
	product *interleave.Product
	traced  []string
}

// warmKey is one (scenario, method, width, packing) selection key.
type warmKey struct {
	pool   int
	method core.Method
	width  int
	noPack bool
}

// warmMethods are the selectors serve-warm's keys draw from.
var warmMethods = []core.Method{core.Exhaustive, core.Knapsack, core.BranchBound, core.Greedy}

// warmWidths is how many buffer widths each scenario's keys span.
const warmWidths = 48

// warmZipfS skews key popularity; with 3072 keys and a 512-entry store the
// hottest keys stay stored while the tail keeps missing.
const warmZipfS = 1.1

// warmGen generates serve-warm's stream over a fixed scenario pool: 60%
// /select, 10% /select/batch and 30% /reconstruct in every block of ten.
type warmGen struct {
	seed   int64
	pool   []*warmScenario
	keys   []warmKey   // every key, in a seeded popularity order
	byPool [][]warmKey // each scenario's keys, in the same order
}

// warmPool builds the scenario documents of the pool: T2 scenarios 1–3,
// the Fig. 2 toy, CacheCoherence ×3 and ×4, and two small synthetic sets.
// The synthetic flows are chains, so their universes — and with them the
// cost of an exhaustive store miss — have the same size for every seed.
func warmPool(seed int64) ([]*spec.Scenario, error) {
	var out []*spec.Scenario
	for _, s := range opensparc.Scenarios() {
		out = append(out, spec.FromFlows(fmt.Sprintf("t2-s%d", s.ID), s.Flows(), s.Instances(), 32))
	}
	cc := flow.CacheCoherence()
	for _, n := range []int{2, 3, 4} {
		var insts []flow.Instance
		for k := 1; k <= n; k++ {
			insts = append(insts, flow.Instance{Flow: cc, Index: k})
		}
		out = append(out, spec.FromFlows(fmt.Sprintf("cc-x%d", n), []*flow.Flow{cc}, insts, n))
	}
	rng := rngFor(seed, -1)
	for k, shape := range [][2]int{{3, 4}, {2, 6}} {
		insts, err := synth.Scenario(shape[0], synth.Params{States: shape[1]}, rng)
		if err != nil {
			return nil, err
		}
		flows := make([]*flow.Flow, len(insts))
		for j, in := range insts {
			flows[j] = in.Flow
		}
		out = append(out, spec.FromFlows(fmt.Sprintf("synth-%d", k), flows, insts, 12))
	}
	return out, nil
}

// newWarmGen prepares the generator: pool scenarios with their encoded
// documents and the key space. Products and traced sets are attached by
// the caller once sessions exist.
func newWarmGen(seed int64) (*warmGen, error) {
	docs, err := warmPool(seed)
	if err != nil {
		return nil, err
	}
	g := &warmGen{seed: seed, byPool: make([][]warmKey, len(docs))}
	for _, sc := range docs {
		raw, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		insts, err := sc.Build()
		if err != nil {
			return nil, err
		}
		flows := make([]*flow.Flow, 0, len(insts))
		seen := map[*flow.Flow]bool{}
		for _, in := range insts {
			if !seen[in.Flow] {
				seen[in.Flow] = true
				flows = append(flows, in.Flow)
			}
		}
		ws := &warmScenario{sc: sc, raw: raw, universe: universeOf(flows)}
		ws.minWidth = 1 << 30
		for _, m := range ws.universe {
			ws.minWidth = min(ws.minWidth, m.Width)
		}
		g.pool = append(g.pool, ws)
	}
	for p, ws := range g.pool {
		for _, m := range warmMethods {
			for w := 0; w < warmWidths; w++ {
				for _, np := range []bool{false, true} {
					g.keys = append(g.keys, warmKey{pool: p, method: m, width: ws.minWidth + w, noPack: np})
				}
			}
		}
	}
	rngFor(seed, -2).Shuffle(len(g.keys), func(a, b int) {
		g.keys[a], g.keys[b] = g.keys[b], g.keys[a]
	})
	for _, k := range g.keys {
		g.byPool[k.pool] = append(g.byPool[k.pool], k)
	}
	return g, nil
}

func zipfDraw(rng *rand.Rand, n int) int {
	return int(rand.NewZipf(rng, warmZipfS, 1, uint64(n-1)).Uint64())
}

func (k warmKey) options() serve.Options {
	return serve.Options{Method: k.method.String(), Width: k.width, NoPack: k.noPack}
}

// withFields splices extra JSON fields into a scenario object.
func withFields(fields any, scenario []byte) ([]byte, error) {
	head, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(head)+len(scenario))
	out = append(out, head[:len(head)-1]...)
	out = append(out, ',')
	return append(out, scenario[1:]...), nil
}

// reconstructFields are the /reconstruct fields spliced before a scenario.
type reconstructFields struct {
	Mode     string              `json:"mode"`
	Match    string              `json:"match"`
	Traced   []string            `json:"traced"`
	Observed []serve.ObservedMsg `json:"observed"`
}

// request generates request i.
func (g *warmGen) request(i int) (*request, error) {
	rng := rngFor(g.seed, i)
	s := slot(g.seed, i, 10)
	switch {
	case s < 6:
		k := g.keys[zipfDraw(rng, len(g.keys))]
		ws := g.pool[k.pool]
		body, err := withFields(k.options(), ws.raw)
		return &request{i: i, path: "/select", body: body, budget: k.width, universe: ws.universe, method: k.method, pool: k.pool}, err
	case s == 6:
		p := rng.Intn(len(g.pool))
		keys := g.byPool[p]
		n := 4 + rng.Intn(5)
		var batch []serve.Options
		for len(batch) < n-1 {
			batch = append(batch, keys[zipfDraw(rng, len(keys))].options())
		}
		dup := batch[rng.Intn(len(batch))]
		at := rng.Intn(len(batch) + 1)
		batch = append(batch[:at], append([]serve.Options{dup}, batch[at:]...)...)
		body, err := withFields(struct {
			Batch []serve.Options `json:"batch"`
		}{batch}, g.pool[p].raw)
		return &request{i: i, path: "/select/batch", body: body, universe: g.pool[p].universe, batch: batch, pool: p}, err
	default:
		p := rng.Intn(len(g.pool))
		ws := g.pool[p]
		traced := make(map[string]bool, len(ws.traced))
		for _, n := range ws.traced {
			traced[n] = true
		}
		ex := ws.product.RandomExecution(rng)
		proj := interleave.ProjectTrace(ex.Trace(ws.product), traced)
		proj = proj[:rng.Intn(len(proj)+1)]
		f := reconstructFields{Mode: "exact", Match: "prefix", Traced: ws.traced, Observed: []serve.ObservedMsg{}}
		for _, m := range proj {
			f.Observed = append(f.Observed, serve.ObservedMsg{Name: m.Name, Index: m.Index})
		}
		body, err := withFields(f, ws.raw)
		return &request{i: i, path: "/reconstruct", body: body, universe: ws.universe, pool: p, traced: ws.traced, observed: proj}, err
	}
}

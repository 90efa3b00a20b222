package debugger

import (
	"fmt"
	"math/rand"
	"sort"

	"tracescale/internal/flow"
)

// Pred is a predicate over a message's observed Status, used in root-cause
// signatures.
type Pred int

const (
	// AnyStatus matches everything (the cause says nothing about this
	// message).
	AnyStatus Pred = iota
	// IsMissing matches only Missing.
	IsMissing
	// IsAbsent matches Missing or Reduced.
	IsAbsent
	// IsNormal matches Normal.
	IsNormal
	// IsCorrupt matches Corrupt.
	IsCorrupt
	// IsReduced matches only Reduced (some but not all occurrences
	// arrived — the footprint of a bug that arms partway through a run).
	IsReduced
	// IsPresent matches anything that appeared: Normal, Corrupt, Extra, or
	// Reduced (some occurrences arrived).
	IsPresent
)

// Matches reports whether the status satisfies the predicate.
func (p Pred) Matches(s Status) bool {
	switch p {
	case AnyStatus:
		return true
	case IsMissing:
		return s == Missing
	case IsAbsent:
		return s == Missing || s == Reduced
	case IsNormal:
		return s == Normal
	case IsCorrupt:
		return s == Corrupt
	case IsReduced:
		return s == Reduced
	case IsPresent:
		return s != Missing
	default:
		return false
	}
}

// Cause is one potential architecture-level root cause of a usage-scenario
// failure (Table 7's rows). Signature is the observable footprint the
// cause would leave on the traced messages of the failing instance;
// GlobalSignature constrains the whole run (e.g. "acks stop arriving after
// a while" is Reduced globally, Missing for the failing instance).
// Investigating a message whose observed status contradicts either
// signature eliminates the cause.
type Cause struct {
	ID              int
	IP              string
	Function        string // architecture-level function, e.g. "Mondo generation in DMU"
	Implication     string // expected failure implication
	Signature       map[string]Pred
	GlobalSignature map[string]Pred
}

// Step records one investigated traced message and its effect.
type Step struct {
	Msg        string
	Global     Status
	Focused    Status
	Src, Dst   string
	Eliminated []int // cause IDs eliminated by this step
	Exonerated bool  // the message behaved normally, clearing its IP pair
}

// Report is the outcome of a debugging session.
type Report struct {
	// Steps lists investigations in order.
	Steps []Step
	// Plausible is the surviving cause set.
	Plausible []Cause
	// TotalCauses is the size of the initial candidate set.
	TotalCauses int
	// PrunedFraction = eliminated causes / TotalCauses (Figure 7).
	PrunedFraction float64
	// LegalPairs is the number of distinct (src, dst) IP pairs with
	// scenario traffic; CandidatePairs the number still suspect after
	// debugging; PairsInvestigated the distinct pairs of investigated
	// messages (Table 6).
	LegalPairs        int
	CandidatePairs    int
	PairsInvestigated int
	// EntriesInvestigated totals the trace-buffer occurrences behind the
	// investigated messages (Table 6's "messages investigated").
	EntriesInvestigated int
	// CauseCurve[i] is the number of plausible causes remaining after
	// step i; PairCurve likewise for candidate IP pairs (Figure 6).
	CauseCurve []int
	PairCurve  []int
}

// RootCausedFunctions renders the surviving causes' functions, the
// "root caused architecture level function" column of Table 6.
func (r *Report) RootCausedFunctions() []string {
	out := make([]string, len(r.Plausible))
	for i, c := range r.Plausible {
		out[i] = c.Function
	}
	return out
}

// Config parameterizes a debugging session.
type Config struct {
	// Universe is the scenario's message catalog (for IP pairs and flow
	// guidance).
	Universe []flow.Message
	// Flows are the participating flows, used to guide the investigation
	// order from the symptom outwards.
	Flows []*flow.Flow
	// Traced is the set of observable message names.
	Traced []string
	// Causes is the scenario's potential-root-cause catalog.
	Causes []Cause
	// Seed drives the pseudo-random choice among equally attractive next
	// messages (§5.6: "the choice of which traced message to investigate
	// is pseudo-random and guided by the participating flows").
	Seed int64
}

// Plan is a debugging session compiled from its Config minus the Seed:
// everything Debug derives from the scenario and the traced set alone.
// Traced names are sorted into dense IDs, so ascending ID is the sorted
// order the pseudo-random pick draws from. A Plan is read-only once
// compiled; one serves every run of a campaign that traces its set.
type Plan struct {
	traced []string         // Config.Traced as given: the order errors follow
	names  []string         // distinct traced names, sorted; index = ID
	ids    map[string]int32 // traced name → ID
	msgs   []flow.Message   // per ID: the universe's message
	// adj lists each traced ID's flow-adjacent traced IDs.
	adj [][]int32
	// pair is each traced ID's IP pair, numbered among the legal pairs
	// (every pair with scenario traffic); onPair counts the traced
	// messages on each pair, and tracedPairs the pairs that carry any.
	pair        []int32
	onPair      []int
	tracedPairs int
	causes      []Cause
	// checks lists, per traced ID, the causes whose signatures name it,
	// in catalog order.
	checks [][]check
}

// check is one cause's constraint on one traced message; AnyStatus stands
// for a signature that does not name it.
type check struct {
	cause           int32 // position in the catalog
	focused, global Pred
}

// Compile validates cfg and compiles its plan; cfg.Seed is ignored.
func Compile(cfg Config) (*Plan, error) {
	p, _, err := compile(cfg)
	return p, err
}

// compile also returns how many leading traced names passed validation:
// Debug reports a traced name missing from its observation before any
// error found after it.
func compile(cfg Config) (*Plan, int, error) {
	if len(cfg.Traced) == 0 {
		return nil, 0, fmt.Errorf("debugger: no traced messages")
	}
	if len(cfg.Causes) == 0 {
		return nil, 0, fmt.Errorf("debugger: no candidate causes")
	}
	byName := make(map[string]flow.Message, len(cfg.Universe))
	for _, m := range cfg.Universe {
		byName[m.Name] = m
	}
	p := &Plan{traced: append([]string(nil), cfg.Traced...), ids: make(map[string]int32, len(cfg.Traced))}
	for i, n := range cfg.Traced {
		if _, ok := byName[n]; !ok {
			return nil, i, fmt.Errorf("debugger: traced message %q not in universe", n)
		}
		if _, dup := p.ids[n]; !dup {
			p.ids[n] = 0
			p.names = append(p.names, n)
		}
	}
	sort.Strings(p.names)
	p.msgs = make([]flow.Message, len(p.names))
	for id, n := range p.names {
		p.ids[n] = int32(id)
		p.msgs[id] = byName[n]
	}

	// Legal IP pairs: every ordered (src, dst) with scenario traffic.
	type ipPair struct{ src, dst string }
	pairIDs := make(map[ipPair]int32, len(cfg.Universe))
	for _, m := range cfg.Universe {
		pr := ipPair{m.Src, m.Dst}
		if _, ok := pairIDs[pr]; !ok {
			pairIDs[pr] = int32(len(pairIDs))
		}
	}
	p.pair = make([]int32, len(p.names))
	p.onPair = make([]int, len(pairIDs))
	for id, m := range p.msgs {
		pr := pairIDs[ipPair{m.Src, m.Dst}]
		p.pair[id] = pr
		if p.onPair[pr] == 0 {
			p.tracedPairs++
		}
		p.onPair[pr]++
	}

	// Flow adjacency between traced messages: two are neighbors if some
	// flow has transitions carrying them on adjacent edges (sharing a
	// state). The investigation frontier expands along this graph.
	n := len(p.names)
	linked := make([]bool, n*n)
	for _, f := range cfg.Flows {
		edges := f.Edges()
		for _, e1 := range edges {
			a, ok := p.ids[f.Message(e1.Msg).Name]
			if !ok {
				continue
			}
			for _, out := range f.Out(e1.To) {
				b, ok := p.ids[f.Message(edges[out].Msg).Name]
				if ok && a != b {
					linked[int(a)*n+int(b)] = true
					linked[int(b)*n+int(a)] = true
				}
			}
		}
	}
	p.adj = make([][]int32, n)
	for a := range p.adj {
		for b := 0; b < n; b++ {
			if linked[a*n+b] {
				p.adj[a] = append(p.adj[a], int32(b))
			}
		}
	}

	// Per-cause signature tables, indexed by traced ID.
	p.causes = append([]Cause(nil), cfg.Causes...)
	p.checks = make([][]check, n)
	seen := make(map[int]bool, len(cfg.Causes))
	for ci, c := range cfg.Causes {
		if seen[c.ID] {
			return nil, len(cfg.Traced), fmt.Errorf("debugger: duplicate cause id %d", c.ID)
		}
		seen[c.ID] = true
		at := func(name string) *check {
			id, ok := p.ids[name]
			if !ok {
				return nil
			}
			row := p.checks[id]
			if len(row) == 0 || row[len(row)-1].cause != int32(ci) {
				row = append(row, check{cause: int32(ci), focused: AnyStatus, global: AnyStatus})
				p.checks[id] = row
			}
			return &row[len(row)-1]
		}
		for name, pred := range c.Signature {
			if ch := at(name); ch != nil {
				ch.focused = pred
			}
		}
		for name, pred := range c.GlobalSignature {
			if ch := at(name); ch != nil {
				ch.global = pred
			}
		}
	}
	return p, len(cfg.Traced), nil
}

// missingFrom returns the error for the first name the observation does
// not classify, or nil.
func missingFrom(obs Observation, names []string) error {
	for _, n := range names {
		if _, ok := obs.Global[n]; !ok {
			return fmt.Errorf("debugger: traced message %q missing from observation", n)
		}
	}
	return nil
}

// Debug runs a debugging session over an observation, reproducing the
// paper's procedure: start with the traced message in which the bug
// symptom is observed and backtrack through flow-adjacent traced messages;
// each investigation eliminates contradicted causes and exonerates
// well-behaved IP pairs. It compiles cfg's Plan and runs it on a source
// seeded with cfg.Seed.
func Debug(obs Observation, cfg Config) (*Report, error) {
	p, checked, err := compile(cfg)
	if err != nil {
		if missing := missingFrom(obs, cfg.Traced[:checked]); missing != nil {
			return nil, missing
		}
		return nil, err
	}
	return p.Debug(obs, rand.New(rand.NewSource(cfg.Seed)))
}

// Debug runs the plan's session over an observation; rng drives the
// pseudo-random choice among equally attractive next messages (§5.6: "the
// choice of which traced message to investigate is pseudo-random and
// guided by the participating flows"), one Intn per step. The observation
// must classify every traced message.
func (p *Plan) Debug(obs Observation, rng *rand.Rand) (*Report, error) {
	if err := missingFrom(obs, p.traced); err != nil {
		return nil, err
	}
	n := len(p.names)
	rep := &Report{
		Steps:       make([]Step, 0, n),
		TotalCauses: len(p.causes),
		LegalPairs:  len(p.onPair),
		CauseCurve:  make([]int, 0, n),
		PairCurve:   make([]int, 0, n),
	}
	alive := make([]bool, len(p.causes))
	for i := range alive {
		alive[i] = true
	}
	nAlive, candidates := len(p.causes), len(p.onPair)

	// Investigation order: symptom message first, then flow-adjacent
	// traced messages, then anything left, pseudo-randomly among peers.
	investigated := make([]bool, n)
	frontier := make([]bool, n)
	if len(obs.Symptoms) > 0 {
		if id, ok := p.ids[obs.Symptoms[0].Msg.Name]; ok {
			frontier[id] = true
		}
	}
	// pick draws uniformly among the uninvestigated IDs in set (every
	// traced ID when set is nil), or returns -1 when there are none.
	pick := func(set []bool) int {
		open := func(id int) bool { return !investigated[id] && (set == nil || set[id]) }
		k := 0
		for id := range n {
			if open(id) {
				k++
			}
		}
		if k == 0 {
			return -1
		}
		k = rng.Intn(k)
		for id := range n {
			if open(id) {
				if k == 0 {
					return id
				}
				k--
			}
		}
		return -1 // unreachable: k is below the count of open IDs
	}
	// A pair is exonerated only once every traced message crossing it has
	// been investigated and found Normal; one abnormal message keeps the
	// pair suspect forever.
	normalOnPair := make([]int, len(p.onPair))
	tainted := make([]bool, len(p.onPair))
	for range n {
		next := pick(frontier)
		if next < 0 {
			next = pick(nil)
		}
		investigated[next] = true
		frontier[next] = false
		for _, b := range p.adj[next] {
			if !investigated[b] {
				frontier[b] = true
			}
		}

		m, name := p.msgs[next], p.names[next]
		step := Step{Msg: name, Global: obs.Global[name], Focused: obs.Focused[name], Src: m.Src, Dst: m.Dst}
		for _, ch := range p.checks[next] {
			if alive[ch.cause] && (!ch.focused.Matches(step.Focused) || !ch.global.Matches(step.Global)) {
				step.Eliminated = append(step.Eliminated, p.causes[ch.cause].ID)
				alive[ch.cause] = false
				nAlive--
			}
		}
		pr := p.pair[next]
		if step.Global == Normal {
			normalOnPair[pr]++
		} else {
			tainted[pr] = true
		}
		if !tainted[pr] && normalOnPair[pr] == p.onPair[pr] {
			step.Exonerated = true
			candidates--
		}
		rep.EntriesInvestigated += obs.Entries[name]
		rep.Steps = append(rep.Steps, step)
		rep.CauseCurve = append(rep.CauseCurve, nAlive)
		rep.PairCurve = append(rep.PairCurve, candidates)
	}

	for i, c := range p.causes {
		if alive[i] {
			rep.Plausible = append(rep.Plausible, c)
		}
	}
	rep.PrunedFraction = float64(rep.TotalCauses-len(rep.Plausible)) / float64(rep.TotalCauses)
	rep.CandidatePairs = candidates
	rep.PairsInvestigated = p.tracedPairs
	return rep, nil
}

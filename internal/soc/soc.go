// Package soc is a transaction-level, discrete-event SoC simulator: the
// testbed substrate standing in for the OpenSPARC T2 RTL of the paper's
// evaluation. IPs exchange the messages of concurrently executing indexed
// flow instances under the atomic-state mutex semantics of the interleaved
// flow; every message emission is a cycle-stamped event on an IP-pair
// interface. Fault injectors perturb events (wrong command, corrupt data,
// dropped or misrouted messages), and symptom detection reports hangs and
// bad-trap failures exactly the way a regression testbench would.
//
// The simulator models no backpressure: an instance moves as soon as its
// transition latency has elapsed and the atomic-state mutex lets it. The
// paper's evaluation needs the testbed only to interleave flow messages
// and make injected bugs show.
//
// The simulator is deterministic for a given seed: scheduling uses a seeded
// PRNG and message payloads are derived from (message, index, occurrence,
// seed) hashes, so a golden and a buggy run can be diffed occurrence by
// occurrence to decide which messages a bug affects (the paper's bug
// coverage metric, Table 5).
package soc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
)

// Event is one message emission on an IP-pair interface.
type Event struct {
	Cycle uint64
	Seq   int // global emission order
	Msg   flow.IndexedMsg
	Src   string
	Dst   string
	Data  uint64
	// Occurrence numbers this emission among all emissions of the same
	// indexed message in the run (0-based).
	Occurrence int
	// Dropped marks an emission the injector suppressed: it never reached
	// Dst, the producing instance wedges, and monitors do not see it.
	Dropped bool
	// Misrouted marks an emission delivered to the wrong IP.
	Misrouted bool
	// Corrupted marks a payload the injector altered.
	Corrupted bool
	// Bug identifies the injected bug that perturbed this event (0 = none).
	Bug int
}

// Outcome is an injector's verdict on an event.
type Outcome struct {
	Drop     bool
	Misroute string // non-empty: deliver to this IP instead
	XorMask  uint64 // non-zero: flip these payload bits
	Delay    uint64 // postpone delivery by this many cycles
	Bug      int    // id of the bug that fired
}

// Injector perturbs events in flight. Implementations must be
// deterministic given the event and PRNG.
type Injector interface {
	Apply(ev Event, rng *rand.Rand) Outcome
}

// Launch schedules one indexed flow instance to start at a given cycle.
type Launch struct {
	Flow  *flow.Flow
	Index int
	Start uint64
}

// Scenario is a usage scenario: a named set of launches (Table 1's rows).
type Scenario struct {
	Name     string
	Launches []Launch
}

// Repeat returns n launches of f indexed from firstIndex, starting stride
// cycles apart. It is the standard way to build long-running scenarios.
func Repeat(f *flow.Flow, n, firstIndex int, start, stride uint64) []Launch {
	out := make([]Launch, n)
	for i := range out {
		out[i] = Launch{Flow: f, Index: firstIndex + i, Start: start + uint64(i)*stride}
	}
	return out
}

// DefaultDataGen derives the payload of one message occurrence from an
// FNV-1a hash of its coordinates, masked to the message width. It is a
// pure function of its arguments, so golden and buggy runs agree on
// unperturbed payloads.
func DefaultDataGen(m flow.Message, index, occurrence int, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%d", m.Name, index, occurrence, seed)
	v := h.Sum64()
	if m.Width < 64 {
		v &= (uint64(1) << uint(m.Width)) - 1
	}
	return v
}

// Config parameterizes a simulation run.
type Config struct {
	Seed int64
	// MaxCycles aborts the run (hang detection) when exceeded. Default
	// 10,000,000.
	MaxCycles uint64
	// MaxLatency bounds the per-transition delay: a transition takes
	// 1..MaxLatency cycles, drawn uniformly from the run's PRNG. The
	// default, 0, means 1: every transition takes one cycle and draws
	// nothing.
	MaxLatency uint64
	// Injectors perturb events in order.
	Injectors []Injector
	// Obs receives run metrics (soc.runs, soc.cycles, soc.events.*,
	// soc.instances.*, soc.symptoms, soc.run_cycles). Nil — the default —
	// disables instrumentation; either way the simulation loop pays
	// nothing, because the metrics are aggregated from the Result once
	// per run.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxCycles == 0 {
		c.MaxCycles = 10_000_000
	}
	return c
}

// SymptomKind classifies observed failures.
type SymptomKind int

const (
	// Hang: a flow instance never completed (dropped/misrouted message,
	// deadlock, or starvation past MaxCycles).
	Hang SymptomKind = iota
	// BadTrap: an instance completed having consumed corrupted data — the
	// testbench's "FAIL: Bad Trap".
	BadTrap
)

func (k SymptomKind) String() string {
	switch k {
	case Hang:
		return "hang"
	case BadTrap:
		return "bad-trap"
	default:
		return fmt.Sprintf("SymptomKind(%d)", int(k))
	}
}

// Symptom is one observed failure of the run.
type Symptom struct {
	Kind  SymptomKind
	Cycle uint64
	Flow  string
	Index int
	// Msg is the last message the failing instance emitted (the traced
	// message in which the symptom is observed), if any.
	Msg flow.IndexedMsg
}

func (s Symptom) String() string {
	return fmt.Sprintf("FAIL: %s flow=%s index=%d cycle=%d last=%s", s.Kind, s.Flow, s.Index, s.Cycle, s.Msg)
}

// Result is the outcome of a simulation run.
type Result struct {
	// Events lists every emission in order, including dropped ones.
	Events []Event
	// Symptoms lists detected failures (empty for a passing run).
	Symptoms []Symptom
	// EndCycle is the cycle at which the run finished or was aborted.
	EndCycle uint64
	// Completed counts instances that reached a stop state.
	Completed int
	// Wedged counts instances stalled forever by an injected fault.
	Wedged int
}

// Delivered returns the events that actually reached a destination IP —
// what interface monitors can observe.
func (r *Result) Delivered() []Event {
	out := make([]Event, 0, len(r.Events))
	for _, e := range r.Events {
		if !e.Dropped {
			out = append(out, e)
		}
	}
	return out
}

// Passed reports whether the run finished without symptoms.
func (r *Result) Passed() bool { return len(r.Symptoms) == 0 }

type instance struct {
	launch   Launch
	state    int
	readyAt  uint64
	done     bool
	wedged   bool
	poisoned bool
	lastMsg  flow.IndexedMsg
	hasMsg   bool
}

// poisonMask is the payload perturbation a poisoned instance applies to
// every message it emits after consuming corrupted data: wrong values
// propagate through the rest of the transaction, as they would in silicon.
// The mask is a pure function of the instance so golden/buggy diffing
// stays occurrence-exact, and is never zero.
func poisonMask(f *flow.Flow, index int, width int, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "poison/%s/%d/%d", f.Name(), index, seed)
	v := h.Sum64() | 1
	if width < 64 {
		v &= (uint64(1) << uint(width)) - 1
		if v == 0 {
			v = 1
		}
	}
	return v
}

// Run executes the scenario. It fails on an empty scenario or illegally
// indexed launches.
func Run(sc Scenario, cfg Config) (*Result, error) {
	if len(sc.Launches) == 0 {
		return nil, errors.New("soc: scenario has no launches")
	}
	insts := make([]flow.Instance, len(sc.Launches))
	for i, l := range sc.Launches {
		insts[i] = flow.Instance{Flow: l.Flow, Index: l.Index}
	}
	if !flow.LegallyIndexed(insts) {
		return nil, errors.New("soc: launches are not legally indexed (Definition 4)")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	run := make([]*instance, len(sc.Launches))
	for i, l := range sc.Launches {
		if len(l.Flow.Init()) != 1 {
			return nil, fmt.Errorf("soc: flow %q must have exactly one initial state", l.Flow.Name())
		}
		run[i] = &instance{launch: l, state: l.Flow.Init()[0], readyAt: l.Start}
	}

	res := &Result{}
	occ := make(map[flow.IndexedMsg]int)
	var cycle uint64

	var ready []int
	for {
		// An instance in an atomic state holds the global mutex: only it
		// may move (flow.Builder guarantees at most one can be atomic).
		holder := -1
		for i, in := range run {
			if !in.done && !in.wedged && in.launch.Flow.IsAtomic(in.state) {
				holder = i
				break
			}
		}
		// Collect the mutex-legal instances that can fire at the current
		// cycle, and the next cycle at which a waiting one can.
		ready = ready[:0]
		next := ^uint64(0)
		for i, in := range run {
			if in.done || in.wedged || (holder >= 0 && holder != i) {
				continue
			}
			if in.readyAt <= cycle {
				ready = append(ready, i)
			} else if in.readyAt < next {
				next = in.readyAt
			}
		}
		if len(ready) == 0 {
			if next == ^uint64(0) {
				break // all done, or deadlocked (wedged mutex holder)
			}
			cycle = next
			if cycle > cfg.MaxCycles {
				break
			}
			continue
		}
		if cycle > cfg.MaxCycles {
			break
		}

		in := run[ready[rng.Intn(len(ready))]]
		f := in.launch.Flow
		outs := f.Out(in.state)
		if len(outs) == 0 {
			// Stop state with no successors (the common case) — finished.
			in.done = true
			continue
		}
		edge := f.Edges()[outs[rng.Intn(len(outs))]]
		m := f.Message(edge.Msg)
		im := flow.IndexedMsg{Name: m.Name, Index: in.launch.Index}
		ev := Event{
			Cycle:      cycle,
			Seq:        len(res.Events),
			Msg:        im,
			Src:        m.Src,
			Dst:        m.Dst,
			Data:       DefaultDataGen(m, in.launch.Index, occ[im], cfg.Seed),
			Occurrence: occ[im],
		}
		occ[im]++
		if in.poisoned {
			// Corrupted state propagates: everything this instance emits
			// downstream of the corruption carries wrong data.
			ev.Data ^= poisonMask(f, in.launch.Index, m.Width, cfg.Seed)
			ev.Corrupted = true
		}
		for _, inj := range cfg.Injectors {
			out := inj.Apply(ev, rng)
			if out.Bug != 0 {
				ev.Bug = out.Bug
			}
			if out.XorMask != 0 {
				ev.Data ^= out.XorMask
				ev.Corrupted = true
			}
			if out.Delay > 0 {
				ev.Cycle += out.Delay
			}
			if out.Misroute != "" && out.Misroute != ev.Dst {
				ev.Dst = out.Misroute
				ev.Misrouted = true
			}
			if out.Drop {
				ev.Dropped = true
			}
		}
		res.Events = append(res.Events, ev)
		in.lastMsg, in.hasMsg = im, true

		switch {
		case ev.Dropped, ev.Misrouted:
			// The consumer never sees the message; the protocol stalls.
			in.wedged = true
		default:
			if ev.Corrupted {
				in.poisoned = true
			}
			in.state = edge.To
			lat := uint64(1)
			if cfg.MaxLatency > 1 {
				lat += uint64(rng.Int63n(int64(cfg.MaxLatency)))
			}
			in.readyAt = ev.Cycle + lat
			// An execution ends at the first stop state it reaches
			// (Definition 2).
			if f.IsStop(in.state) {
				in.done = true
				if in.poisoned {
					res.Symptoms = append(res.Symptoms, Symptom{
						Kind: BadTrap, Cycle: ev.Cycle, Flow: f.Name(), Index: in.launch.Index, Msg: im,
					})
				}
			}
		}
	}

	res.EndCycle = cycle
	for _, in := range run {
		switch {
		case in.done:
			res.Completed++
		default:
			if in.wedged {
				res.Wedged++
			}
			s := Symptom{Kind: Hang, Cycle: cycle, Flow: in.launch.Flow.Name(), Index: in.launch.Index}
			if in.hasMsg {
				s.Msg = in.lastMsg
			}
			res.Symptoms = append(res.Symptoms, s)
		}
	}
	sort.SliceStable(res.Symptoms, func(i, j int) bool { return res.Symptoms[i].Cycle < res.Symptoms[j].Cycle })
	if cfg.Obs != nil {
		recordRun(cfg.Obs, sc, res)
	}
	return res, nil
}

// recordRun aggregates a finished run into the registry — one pass over
// the event list at run end, never per-event work inside the simulation
// loop.
func recordRun(reg *obs.Registry, sc Scenario, res *Result) {
	var delivered, dropped, misrouted, corrupted int64
	for _, ev := range res.Events {
		switch {
		case ev.Dropped:
			dropped++
		case ev.Misrouted:
			misrouted++
		default:
			delivered++
		}
		if ev.Corrupted {
			corrupted++
		}
	}
	reg.Counter("soc.runs").Inc()
	reg.Add("soc.cycles", int64(res.EndCycle))
	reg.Add("soc.events.emitted", int64(len(res.Events)))
	reg.Add("soc.events.delivered", delivered)
	reg.Add("soc.events.dropped", dropped)
	reg.Add("soc.events.misrouted", misrouted)
	reg.Add("soc.events.corrupted", corrupted)
	reg.Add("soc.instances.launched", int64(len(sc.Launches)))
	reg.Add("soc.instances.completed", int64(res.Completed))
	reg.Add("soc.instances.wedged", int64(res.Wedged))
	reg.Add("soc.symptoms", int64(len(res.Symptoms)))
	reg.Histogram("soc.run_cycles", runCycleBounds).Observe(int64(res.EndCycle))
}

// runCycleBounds buckets soc.run_cycles: regression tests end within
// thousands of cycles; hangs abort at MaxCycles (default 10M).
var runCycleBounds = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

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
//
// A run costs per event, not per instance. It numbers its (message name,
// index) pairs densely once, hashing each pair's payload prefix once, so an
// event's occurrence count and payload take no map lookup and no
// allocation. Unstarted launches wait in a queue by start cycle, and only
// started, live instances are scanned for the mutex holder and the ready
// set; the ready order (ascending launch position) and the PRNG draw
// sequence are those of a scan over every instance.
package soc

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// DefaultDataGen derives the payload of one message occurrence from the
// FNV-1a hash of "name/index/occurrence/seed" (the decimal coordinates),
// masked to the message width. It is a pure function of its arguments, so
// golden and buggy runs agree on unperturbed payloads. Run computes the
// same value from a per-(name, index) hash prefix; neither allocates.
func DefaultDataGen(m flow.Message, index, occurrence int, seed int64) uint64 {
	var buf [21]byte
	return payload(keyHash(fnvOffset, m.Name, index), occurrence, seedSuffix(buf[:0], seed), m.Width)
}

// FNV-1a 64, hash/fnv's New64a folded by hand so that hashing allocates
// nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// fnvInt folds v's decimal digits, as fmt's %d writes them.
func fnvInt(h uint64, v int64) uint64 {
	var buf [20]byte
	return fnvBytes(h, strconv.AppendInt(buf[:0], v, 10))
}

// keyHash folds "name/index/" into h. From fnvOffset it is the prefix
// every payload of one indexed message shares.
func keyHash(h uint64, name string, index int) uint64 {
	h = fnvString(fnvString(h, name), "/")
	return fnvString(fnvInt(h, int64(index)), "/")
}

// seedSuffix appends "/seed" to dst: the bytes after the occurrence.
func seedSuffix(dst []byte, seed int64) []byte {
	return strconv.AppendInt(append(dst, '/'), seed, 10)
}

// payload finishes a slot hash over the occurrence's digits and the seed
// suffix, masked to width bits.
func payload(h uint64, occurrence int, seed []byte, width int) uint64 {
	v := fnvBytes(fnvInt(h, int64(occurrence)), seed)
	if width < 64 {
		v &= (uint64(1) << uint(width)) - 1
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
	// slots maps the flow's message table to the run's (name, index) slots.
	slots []int32
}

// slotTable numbers a run's (message name, index) pairs densely. Every
// launch that emits a pair shares its slot, so occurrences count across
// flows that carry the same message name at the same index, as the
// payload hash and the golden/buggy diff require.
type slotTable struct {
	prefix []uint64 // keyHash of the slot's "name/index/"
	occ    []int    // emissions so far
}

// newSlots fills each instance's slot list. Names are interned once per
// distinct flow and hashed once per name; launches are visited by index,
// then flow name, so the launches that share an index, and with it their
// slots, are adjacent, and so are two launches of one flow name at one
// index, which Definition 4 forbids. total is the launches' summed
// message-table sizes.
func newSlots(insts []instance, total int) (*slotTable, error) {
	arena := make([]int32, total)
	names := make(map[string]int32)
	flowNames := make(map[*flow.Flow][]int32)
	// Per name: the FNV-1a state after "name/", and its slot in the last
	// index group that emits it (group numbers start at 1).
	type nameSlot struct {
		hash        uint64
		group, slot int32
	}
	var byName []nameSlot
	byIndex := make([]int32, len(insts))
	for i := range byIndex {
		byIndex[i] = int32(i)
	}
	slices.SortFunc(byIndex, func(a, b int32) int {
		la, lb := insts[a].launch, insts[b].launch
		if c := cmp.Compare(la.Index, lb.Index); c != 0 {
			return c
		}
		return strings.Compare(la.Flow.Name(), lb.Flow.Name())
	})
	t := &slotTable{prefix: make([]uint64, 0, total)}
	group := int32(0)
	var buf [20]byte
	digits := buf[:0] // the group's index, as fmt's %d writes it
	for k, i := range byIndex {
		in := &insts[i]
		f := in.launch.Flow
		if k == 0 || in.launch.Index != insts[byIndex[k-1]].launch.Index {
			group++
			digits = strconv.AppendInt(digits[:0], int64(in.launch.Index), 10)
		} else if f.Name() == insts[byIndex[k-1]].launch.Flow.Name() {
			return nil, errors.New("soc: launches are not legally indexed (Definition 4)")
		}
		nameIDs, ok := flowNames[f]
		if !ok {
			nameIDs = make([]int32, f.NumMessages())
			for m, msg := range f.Messages() {
				id, ok := names[msg.Name]
				if !ok {
					id = int32(len(names))
					names[msg.Name] = id
					byName = append(byName, nameSlot{hash: fnvString(fnvString(fnvOffset, msg.Name), "/")})
				}
				nameIDs[m] = id
			}
			flowNames[f] = nameIDs
		}
		in.slots, arena = arena[:len(nameIDs):len(nameIDs)], arena[len(nameIDs):]
		for m, name := range nameIDs {
			ns := &byName[name]
			if ns.group != group {
				ns.group, ns.slot = group, int32(len(t.prefix))
				t.prefix = append(t.prefix, fnvString(fnvBytes(ns.hash, digits), "/"))
			}
			in.slots[m] = ns.slot
		}
	}
	t.occ = make([]int, len(t.prefix))
	return t, nil
}

// poisonMask is the payload perturbation a poisoned instance applies to
// every message it emits after consuming corrupted data: wrong values
// propagate through the rest of the transaction, as they would in silicon.
// The mask is a pure function of the instance so golden/buggy diffing
// stays occurrence-exact, and is never zero.
func poisonMask(f *flow.Flow, index int, width int, seed int64) uint64 {
	h := keyHash(fnvString(fnvOffset, "poison/"), f.Name(), index)
	v := fnvInt(h, seed) | 1
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
	run := make([]instance, len(sc.Launches))
	msgs := 0
	for i, l := range sc.Launches {
		run[i] = instance{launch: l, readyAt: l.Start}
		msgs += l.Flow.NumMessages()
	}
	slots, err := newSlots(run, msgs)
	if err != nil {
		return nil, err
	}
	for i := range run {
		f := run[i].launch.Flow
		if len(f.Init()) != 1 {
			return nil, fmt.Errorf("soc: flow %q must have exactly one initial state", f.Name())
		}
		run[i].state = f.Init()[0]
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var seedBuf [21]byte
	seed := seedSuffix(seedBuf[:0], cfg.Seed)

	// Unstarted launches wait by (start cycle, launch position): launch
	// order is flow-major, and start cycles need not rise with it. Started
	// instances that are neither done nor wedged are live, in launch
	// position order. flow.Builder forbids atomic initial states, so the
	// mutex holder is always live, and so is every instance that can fire.
	queue := make([]int32, len(run))
	for i := range queue {
		queue[i] = int32(i)
	}
	slices.SortStableFunc(queue, func(a, b int32) int { return cmp.Compare(run[a].readyAt, run[b].readyAt) })
	live := make([]int32, 0, len(run))
	retire := func(i int32) {
		at := slices.Index(live, i)
		live = slices.Delete(live, at, at+1)
	}

	// A chain flow emits each of its messages once per launch.
	res := &Result{Events: make([]Event, 0, msgs)}
	var cycle uint64
	var ready []int32
	for {
		for len(queue) > 0 && run[queue[0]].readyAt <= cycle {
			i := queue[0]
			queue = queue[1:]
			at, _ := slices.BinarySearch(live, i)
			live = slices.Insert(live, at, i)
		}
		// An instance in an atomic state holds the global mutex: only it
		// may move (flow.Builder guarantees at most one can be atomic).
		holder := int32(-1)
		for _, i := range live {
			if in := &run[i]; in.launch.Flow.IsAtomic(in.state) {
				holder = i
				break
			}
		}
		// Collect the mutex-legal instances that can fire at the current
		// cycle, and the next cycle at which a waiting one can.
		ready = ready[:0]
		next := ^uint64(0)
		for _, i := range live {
			if holder >= 0 && holder != i {
				continue
			}
			if at := run[i].readyAt; at <= cycle {
				ready = append(ready, i)
			} else if at < next {
				next = at
			}
		}
		if holder < 0 && len(queue) > 0 && run[queue[0]].readyAt < next {
			next = run[queue[0]].readyAt
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

		pick := ready[rng.Intn(len(ready))]
		in := &run[pick]
		f := in.launch.Flow
		outs := f.Out(in.state)
		if len(outs) == 0 {
			// Stop state with no successors (the common case) — finished.
			in.done = true
			retire(pick)
			continue
		}
		edge := f.Edges()[outs[rng.Intn(len(outs))]]
		m := f.Message(edge.Msg)
		im := flow.IndexedMsg{Name: m.Name, Index: in.launch.Index}
		slot := in.slots[edge.Msg]
		occ := slots.occ[slot]
		slots.occ[slot]++
		ev := Event{
			Cycle:      cycle,
			Seq:        len(res.Events),
			Msg:        im,
			Src:        m.Src,
			Dst:        m.Dst,
			Data:       payload(slots.prefix[slot], occ, seed, m.Width),
			Occurrence: occ,
		}
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
			retire(pick)
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
				retire(pick)
				if in.poisoned {
					res.Symptoms = append(res.Symptoms, Symptom{
						Kind: BadTrap, Cycle: ev.Cycle, Flow: f.Name(), Index: in.launch.Index, Msg: im,
					})
				}
			}
		}
	}

	res.EndCycle = cycle
	for i := range run {
		in := &run[i]
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

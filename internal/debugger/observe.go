// Package debugger implements the post-silicon debugging methodology of
// the paper's §5.2 and §5.6-5.7: from a failing run's trace-buffer content
// it classifies each traced message against the golden reference, then
// investigates traced messages one at a time — starting at the symptom and
// guided by the participating flows — progressively eliminating candidate
// IP pairs and candidate architecture-level root causes.
//
// Both halves split into what is shared and what is not. A Diff compares
// a golden/buggy pair once over every message and projects onto any
// traced set; a Plan compiles what a session needs from the scenario and
// the traced set alone, and runs at any seed. Observe and Debug make one
// of each per call; a campaign makes one Diff per run pair and one Plan
// per (scenario, set).
package debugger

import (
	"sort"

	"tracescale/internal/flow"
	"tracescale/internal/soc"
)

// Status classifies one traced message's behaviour in the buggy run
// relative to the golden run.
type Status int

const (
	// Normal: same occurrences, same payloads.
	Normal Status = iota
	// Missing: the message never appeared although the golden run has it.
	Missing
	// Reduced: fewer occurrences than the golden run.
	Reduced
	// Corrupt: an occurrence's payload differs from the golden run.
	Corrupt
	// Extra: more occurrences than the golden run (e.g. retry storms).
	Extra
)

func (s Status) String() string {
	switch s {
	case Normal:
		return "normal"
	case Missing:
		return "missing"
	case Reduced:
		return "reduced"
	case Corrupt:
		return "corrupt"
	case Extra:
		return "extra"
	default:
		return "unknown"
	}
}

// Affected reports whether the status indicates the message was affected
// by a bug (its value or presence in the buggy execution differs from the
// bug-free design) — the paper's Table-5 notion.
func (s Status) Affected() bool { return s != Normal }

// Observation is everything the validator gets to see after a failing
// run: per-message classifications of the traced set, both across the
// whole run (Global) and restricted to the failing instance's tag
// (Focused), plus the failure symptoms.
type Observation struct {
	// Global classifies each traced message over the entire run.
	Global map[string]Status
	// Focused classifies each traced message restricted to events whose
	// index equals the failing instance's (tagging makes this possible in
	// real designs; Definition 3 makes it explicit).
	Focused map[string]Status
	// FocusIndex is the failing instance's tag (-1 when no symptom).
	FocusIndex int
	// Symptoms are the failures the run reported, in cycle order.
	Symptoms []soc.Symptom
	// Entries counts the buggy run's delivered occurrences per traced
	// message name — the trace-file volume behind each investigation.
	Entries map[string]int
}

// counts is one message name's tally over a golden/buggy pair: delivered
// occurrences in each run, overall and at the focus index, and whether a
// payload differed.
type counts struct {
	golden, buggy               int
	goldenFocused, buggyFocused int
	corrupt, corruptFocused     bool
}

func classify(corrupt bool, buggy, golden int) Status {
	switch {
	case corrupt:
		return Corrupt
	case buggy == 0 && golden > 0:
		return Missing
	case buggy < golden:
		return Reduced
	case buggy > golden:
		return Extra
	default:
		return Normal
	}
}

// newObservation allocates an Observation's maps for n traced messages.
func newObservation(n, focusIndex int, symptoms []soc.Symptom) Observation {
	return Observation{
		Global:     make(map[string]Status, n),
		Focused:    make(map[string]Status, n),
		FocusIndex: focusIndex,
		Symptoms:   symptoms,
		Entries:    make(map[string]int, n),
	}
}

// record classifies one traced message from its tally.
func (o Observation) record(name string, c counts) {
	o.Entries[name] = c.buggy
	o.Global[name] = classify(c.corrupt, c.buggy, c.golden)
	o.Focused[name] = classify(c.corruptFocused, c.buggyFocused, c.goldenFocused)
}

// Diff is a buggy run compared against its golden run once, over every
// message. Observation projects it onto a traced set, so scoring several
// traced sets against one run pair diffs the pair once.
type Diff struct {
	focus    int
	symptoms []soc.Symptom
	names    map[string]int32 // message name → its tally in counts
	counts   []counts
}

// NewDiff compares a buggy run against the golden run. Only delivered
// events are visible (the monitor cannot see dropped messages). Payload
// comparison is occurrence-exact: the data generator is a pure function of
// (message, index, occurrence), so any difference is bug-induced. The
// focused view is taken at the first symptom's index.
func NewDiff(golden, buggy *soc.Result) *Diff {
	d := &Diff{focus: -1, symptoms: buggy.Symptoms, names: make(map[string]int32)}
	if len(buggy.Symptoms) > 0 {
		d.focus = buggy.Symptoms[0].Index
	}
	// Each (name, index) pair gets a dense slot, keyed by its name's dense
	// ID and its index; an index outside [0, 2^31) is numbered from 2^31
	// up instead. A slot chains its delivered golden occurrences in
	// emission order.
	type goldOcc struct {
		occurrence int
		data       uint64
		next       int32 // the slot's next golden occurrence, or -1
	}
	var wide map[int]uint64
	n := len(golden.Events)
	slots := make(map[uint64]int32, n)
	head, tail := make([]int32, 0, n), make([]int32, 0, n)
	gold := make([]goldOcc, 0, n)
	slot := func(m flow.IndexedMsg) (int32, *counts) {
		name, ok := d.names[m.Name]
		if !ok {
			name = int32(len(d.counts))
			d.names[m.Name] = name
			d.counts = append(d.counts, counts{})
		}
		index := uint64(m.Index)
		if index >= 1<<31 {
			if index, ok = wide[m.Index]; !ok {
				if wide == nil {
					wide = make(map[int]uint64)
				}
				index = 1<<31 + uint64(len(wide))
				wide[m.Index] = index
			}
		}
		key := index<<32 | uint64(name)
		s, ok := slots[key]
		if !ok {
			s = int32(len(head))
			slots[key] = s
			head, tail = append(head, -1), append(tail, -1)
		}
		return s, &d.counts[name]
	}
	for i := range golden.Events {
		ev := &golden.Events[i]
		if ev.Dropped {
			continue
		}
		s, c := slot(ev.Msg)
		c.golden++
		if ev.Msg.Index == d.focus {
			c.goldenFocused++
		}
		g := int32(len(gold))
		gold = append(gold, goldOcc{occurrence: ev.Occurrence, data: ev.Data, next: -1})
		if tail[s] < 0 {
			head[s] = g
		} else {
			gold[tail[s]].next = g
		}
		tail[s] = g
	}
	for i := range buggy.Events {
		ev := &buggy.Events[i]
		if ev.Dropped {
			continue
		}
		s, c := slot(ev.Msg)
		c.buggy++
		focused := ev.Msg.Index == d.focus
		if focused {
			c.buggyFocused++
		}
		// Of two golden events with one occurrence number, the later one
		// counts, as it would under a map keyed by the occurrence.
		want, ok := uint64(0), false
		for g := head[s]; g >= 0; g = gold[g].next {
			if gold[g].occurrence == ev.Occurrence {
				want, ok = gold[g].data, true
			}
		}
		if ok && want != ev.Data {
			c.corrupt = true
			if focused {
				c.corruptFocused = true
			}
		}
	}
	return d
}

// Observation projects the diff onto a traced message set. A traced name
// neither run delivers reads Normal with no entries.
func (d *Diff) Observation(traced map[string]bool) Observation {
	obs := newObservation(len(traced), d.focus, d.symptoms)
	for name := range traced {
		var c counts
		if id, ok := d.names[name]; ok {
			c = d.counts[id]
		}
		obs.record(name, c)
	}
	return obs
}

// Observe diffs a buggy run against the golden run over the traced message
// set: NewDiff(golden, buggy).Observation(traced).
func Observe(golden, buggy *soc.Result, traced map[string]bool) Observation {
	return NewDiff(golden, buggy).Observation(traced)
}

// AffectedMessages returns the traced messages the bug affected anywhere
// in the run, sorted by name — the rows of the paper's Table 5 for one
// injected bug.
func (o Observation) AffectedMessages() []string {
	var out []string
	for name, st := range o.Global {
		if st.Affected() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

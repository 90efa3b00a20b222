package debugger

import (
	"tracescale/internal/flow"
	"tracescale/internal/tbuf"
)

// occKey is one occurrence of an indexed message.
type occKey struct {
	msg        flow.IndexedMsg
	occurrence int
}

// ObserveEntries builds an Observation from trace-buffer contents alone —
// the genuinely post-silicon path, where the validator has a reference
// (golden) trace file and the failing run's trace file, but no event
// stream. Comparison is occurrence-exact per indexed message, like
// Observe. focusIndex is the failing instance's tag (-1 for none; the
// focused view then reads empty-normal).
//
// Payload comparison uses the captured bits only: a packed subgroup can
// flag corruption only if the corruption hits the captured window, which
// is exactly the observability a real packed buffer has.
func ObserveEntries(golden, buggy []tbuf.Entry, traced map[string]bool, focusIndex int) Observation {
	byName := make(map[string]*counts, len(traced))
	for name := range traced {
		byName[name] = &counts{}
	}

	// Occurrence numbering is positional per indexed message: the k-th
	// buffer entry of i:msg in the buggy trace is compared against the
	// k-th in the golden trace.
	goldData := make(map[occKey]uint64)
	goldSeq := make(map[flow.IndexedMsg]int)
	for _, e := range golden {
		c, ok := byName[e.Msg.Name]
		if !ok {
			continue
		}
		c.golden++
		if e.Msg.Index == focusIndex {
			c.goldenFocused++
		}
		goldData[occKey{e.Msg, goldSeq[e.Msg]}] = e.Data
		goldSeq[e.Msg]++
	}
	buggySeq := make(map[flow.IndexedMsg]int)
	for _, e := range buggy {
		c, ok := byName[e.Msg.Name]
		if !ok {
			continue
		}
		c.buggy++
		focused := e.Msg.Index == focusIndex
		if focused {
			c.buggyFocused++
		}
		if want, ok := goldData[occKey{e.Msg, buggySeq[e.Msg]}]; ok && want != e.Data {
			c.corrupt = true
			if focused {
				c.corruptFocused = true
			}
		}
		buggySeq[e.Msg]++
	}

	obs := newObservation(len(traced), focusIndex, nil)
	for name, c := range byName {
		obs.record(name, *c)
	}
	return obs
}

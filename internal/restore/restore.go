// Package restore implements gate-level state restoration, the engine
// behind SRR-based trace-signal selection (Basu-Mishra's SigSeT and
// friends): given the recorded values of a small set of traced flip-flops,
// it reconstructs as many untraced flip-flop values as three-valued
// forward propagation across gates and both-way propagation across
// flip-flops allow, across all time frames, and reports the State
// Restoration Ratio.
//
// The paper's argument (§5.4) is that maximizing this ratio optimizes for
// the wrong thing at the application level; this package exists so that
// comparison can be reproduced honestly.
package restore

import (
	"fmt"

	"tracescale/internal/netlist"
)

// TV is a three-valued logic level.
type TV uint8

const (
	// X is unknown.
	X TV = iota
	// F is logic 0.
	F
	// T is logic 1.
	T
)

func (v TV) String() string {
	switch v {
	case X:
		return "X"
	case F:
		return "0"
	case T:
		return "1"
	default:
		return "?"
	}
}

func fromBool(b bool) TV {
	if b {
		return T
	}
	return F
}

// Result is a completed restoration.
type Result struct {
	// Values[c][net] is the restored value of every net at cycle c.
	Values [][]TV
	// TracedStates counts traced flip-flop state bits (|traced| × cycles);
	// KnownFFStates counts all flip-flop state bits known after
	// restoration (traced included).
	TracedStates  int
	KnownFFStates int
	// SRR is the State Restoration Ratio: KnownFFStates / TracedStates.
	SRR float64
	// Sweeps is the number of fixpoint iterations performed.
	Sweeps int
}

// Restore reconstructs the design state over the trace's cycles given that
// the flip-flops in traced were recorded every cycle. Values propagate
// forward across gates and both ways across flip-flops, the way typical
// SRR tooling restores. Primary inputs are not observable. It returns an
// error if traced contains a non-flip-flop net.
func Restore(t *netlist.Trace, traced []int) (*Result, error) {
	n := t.Netlist
	isFF := make(map[int]bool, len(n.FFs()))
	for _, ff := range n.FFs() {
		isFF[ff] = true
	}
	tracedSet := make(map[int]bool, len(traced))
	for _, id := range traced {
		if !isFF[id] {
			return nil, fmt.Errorf("restore: traced net %q is not a flip-flop", n.Name(id))
		}
		tracedSet[id] = true
	}

	cycles := t.Cycles()
	vals := make([][]TV, cycles)
	for c := range vals {
		vals[c] = make([]TV, n.N())
		for id := range tracedSet {
			vals[c][id] = fromBool(t.Values[c][id])
		}
	}

	res := &Result{Values: vals, TracedStates: len(tracedSet) * cycles}
	if res.TracedStates == 0 {
		return nil, fmt.Errorf("restore: no traced flip-flops")
	}

	set := func(c, id int, v TV) bool {
		if v == X || vals[c][id] != X {
			return false
		}
		vals[c][id] = v
		return true
	}

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for c := 0; c < cycles; c++ {
			for id := 0; id < n.N(); id++ {
				g := n.Gate(id)
				switch g.Kind {
				case netlist.Input:
					// Unobservable.
				case netlist.DFF:
					// Sequential forward: ff@c = D@(c-1).
					if c > 0 && set(c, id, vals[c-1][g.Ins[0]]) {
						changed = true
					}
					// Sequential backward: D@(c-1) = ff@c.
					if c > 0 && set(c-1, g.Ins[0], vals[c][id]) {
						changed = true
					}
				default:
					if set(c, id, forward(g, vals[c])) {
						changed = true
					}
				}
			}
		}
		res.Sweeps = sweep + 1
		if !changed {
			break
		}
	}

	for c := 0; c < cycles; c++ {
		for _, ff := range n.FFs() {
			if vals[c][ff] != X {
				res.KnownFFStates++
			}
		}
	}
	res.SRR = float64(res.KnownFFStates) / float64(res.TracedStates)
	return res, nil
}

// forward evaluates a combinational gate in three-valued logic.
func forward(g netlist.Gate, row []TV) TV {
	switch g.Kind {
	case netlist.And, netlist.Nand:
		out := T
		for _, u := range g.Ins {
			switch row[u] {
			case F:
				out = F // a single 0 dominates regardless of Xs
			case X:
				if out == T {
					out = X
				}
			}
		}
		if out == X {
			return X
		}
		return invertIf(g.Kind == netlist.Nand, out)
	case netlist.Or, netlist.Nor:
		out := F
		for _, u := range g.Ins {
			switch row[u] {
			case T:
				return invertIf(g.Kind == netlist.Nor, T)
			case X:
				out = X
			}
		}
		if out == X {
			return X
		}
		return invertIf(g.Kind == netlist.Nor, F)
	case netlist.Xor:
		out := F
		for _, u := range g.Ins {
			switch row[u] {
			case X:
				return X
			case T:
				out = invert(out)
			}
		}
		return out
	case netlist.Not:
		return invert(row[g.Ins[0]])
	case netlist.Buf:
		return row[g.Ins[0]]
	case netlist.Const0:
		return F
	case netlist.Const1:
		return T
	default:
		return X
	}
}

func invert(v TV) TV {
	switch v {
	case F:
		return T
	case T:
		return F
	default:
		return X
	}
}

func invertIf(cond bool, v TV) TV {
	if cond {
		return invert(v)
	}
	return v
}

// Package inject provides the bug-injection framework of the evaluation:
// a declarative bug model (in the spirit of the QED bug classes and the
// paper's Table 2) compiled into soc.Injector fault hooks. A Bug targets
// one message of one IP and perturbs it — wrong command or decode (payload
// corruption) or dropped message (protocol stall) — optionally only from
// a given instance index on, so that symptoms take hundreds of messages
// and long cycle counts to manifest.
package inject

import (
	"fmt"
	"math/rand"

	"tracescale/internal/soc"
)

// Kind is the mechanical effect of a bug on its target message.
type Kind int

const (
	// Corrupt XORs the payload with XorMask: wrong command generation,
	// data corruption, malformed requests, wrong decodes.
	Corrupt Kind = iota
	// Drop suppresses the message: the consuming protocol stalls and the
	// flow instance hangs.
	Drop
)

func (k Kind) String() string {
	switch k {
	case Corrupt:
		return "corrupt"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Bug is one injected design bug.
type Bug struct {
	// ID is the bug's catalog number (Table 2 / Table 5 style).
	ID int
	// IP is the buggy hardware block.
	IP string
	// Depth is the hierarchical depth of the block from the design top
	// (Table 2's "bug depth").
	Depth int
	// Category is "Control" or "Data" (Table 2's "bug category").
	Category string
	// Description is the functional implication of the bug ("bug type").
	Description string

	// Kind, Target and the fields below define the fault mechanics.
	Kind    Kind
	Target  string // message name the bug perturbs
	XorMask uint64 // Corrupt: bits to flip

	// AfterIndex arms the bug only for instances with index >=
	// AfterIndex, delaying manifestation deep into a run.
	AfterIndex int
}

// Triggered reports whether the bug perturbs this event.
func (b Bug) Triggered(ev soc.Event) bool {
	return ev.Msg.Name == b.Target && ev.Msg.Index >= b.AfterIndex
}

// Apply implements soc.Injector. A bug is deterministic in the event
// alone, so it draws nothing from the run's rng.
func (b Bug) Apply(ev soc.Event, _ *rand.Rand) soc.Outcome {
	if !b.Triggered(ev) {
		return soc.Outcome{}
	}
	out := soc.Outcome{Bug: b.ID}
	switch b.Kind {
	case Corrupt:
		mask := b.XorMask
		if mask == 0 {
			mask = 1
		}
		out.XorMask = mask
	case Drop:
		out.Drop = true
	}
	return out
}

func (b Bug) String() string {
	return fmt.Sprintf("bug %d [%s/%s depth %d] %s %s: %s",
		b.ID, b.IP, b.Category, b.Depth, b.Kind, b.Target, b.Description)
}

var _ soc.Injector = Bug{}

// Injectors adapts a set of bugs to the simulator's injector list.
func Injectors(bugs ...Bug) []soc.Injector {
	out := make([]soc.Injector, len(bugs))
	for i, b := range bugs {
		out[i] = b
	}
	return out
}

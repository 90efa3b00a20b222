package inject

import (
	"math/rand"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/soc"
)

// FuzzBugApply drives Bug.Triggered/Apply over arbitrary events, kinds,
// and gating fields. The invariants the campaign runner leans on:
// Apply never panics and draws nothing from the rng, a non-triggered bug
// returns the identity outcome, and a triggered bug stamps its ID with
// the kind's effect.
func FuzzBugApply(f *testing.F) {
	f.Add(1, "m", "m", int(Corrupt), 3, 3, 2, uint64(0xF0), uint64(0xAB), int64(1))
	f.Add(2, "m", "other", int(Drop), 0, 5, 0, uint64(0), uint64(1), int64(7))
	f.Add(3, "a", "a", int(Drop), 1, 0, 9, uint64(0), uint64(0), int64(-4))
	f.Add(4, "b", "b", int(Corrupt), 2, 2, 1, uint64(0), uint64(3), int64(0))
	f.Add(5, "c", "c", 99, 0, 0, 0, uint64(7), uint64(9), int64(9))
	f.Fuzz(func(t *testing.T, id int, target, evName string, kind, afterIdx, evIdx, evOcc int,
		xorMask, data uint64, seed int64) {
		b := Bug{ID: id, Kind: Kind(kind), Target: target, XorMask: xorMask, AfterIndex: afterIdx}
		ev := soc.Event{
			Msg:        flow.IndexedMsg{Name: evName, Index: evIdx},
			Occurrence: evOcc,
			Data:       data,
		}
		triggered := b.Triggered(ev)
		if want := evName == target && evIdx >= afterIdx; triggered != want {
			t.Fatalf("Triggered = %v, want %v (name %q/%q idx %d/%d)",
				triggered, want, evName, target, evIdx, afterIdx)
		}
		r := rand.New(rand.NewSource(seed))
		out := b.Apply(ev, r)
		if r.Int63() != rand.New(rand.NewSource(seed)).Int63() {
			t.Fatal("Apply drew from the rng")
		}
		if !triggered {
			if out != (soc.Outcome{}) {
				t.Fatalf("non-triggered bug perturbed the event: %+v", out)
			}
			return
		}
		if out == (soc.Outcome{}) {
			// A triggered bug returns the identity outcome only as an ID-0
			// bug of an unknown kind, which carries no effect and so is
			// indistinguishable from no injection by construction.
			if id != 0 || b.Kind == Corrupt || b.Kind == Drop {
				t.Fatalf("triggered bug returned the identity outcome: %+v", b)
			}
			return
		}
		if out.Bug != id {
			t.Fatalf("outcome bug id = %d, want %d", out.Bug, id)
		}
		switch b.Kind {
		case Corrupt:
			if out.XorMask == 0 {
				t.Fatal("corrupt outcome with zero mask (must normalize to 1)")
			}
			if xorMask != 0 && out.XorMask != xorMask {
				t.Fatalf("corrupt mask = %#x, want %#x", out.XorMask, xorMask)
			}
		case Drop:
			if !out.Drop {
				t.Fatal("drop outcome without Drop")
			}
		default:
			// Unknown kinds perturb nothing beyond the ID stamp.
			if out.Drop || out.XorMask != 0 {
				t.Fatalf("unknown kind %d carried an effect: %+v", kind, out)
			}
		}
	})
}

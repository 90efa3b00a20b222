package restore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tracescale/internal/netlist"
)

// shiftChain builds an n-deep shift register fed by a primary input.
func shiftChain(t *testing.T, depth int) (*netlist.Netlist, []int) {
	t.Helper()
	b := netlist.NewBuilder()
	in := b.Input("in")
	ffs := make([]int, depth)
	prev := in
	for i := range ffs {
		ffs[i] = b.DFF(fmt.Sprintf("s%d", i))
		b.Connect(ffs[i], prev)
		prev = ffs[i]
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, ffs
}

func TestTVString(t *testing.T) {
	if X.String() != "X" || F.String() != "0" || T.String() != "1" || TV(9).String() != "?" {
		t.Error("TV strings wrong")
	}
}

func TestRestoreErrors(t *testing.T) {
	n, _ := shiftChain(t, 4)
	tr := netlist.Record(n, 8, 1)
	if _, err := Restore(tr, nil); err == nil {
		t.Error("no traced FFs should fail")
	}
	in, _ := n.NetID("in")
	if _, err := Restore(tr, []int{in}); err == nil {
		t.Error("tracing a non-FF should fail")
	}
}

// Tracing one tap of a shift register restores the whole chain across
// time (sequential forward and backward crossings).
func TestShiftRegisterRestoresFromOneTap(t *testing.T) {
	n, ffs := shiftChain(t, 8)
	tr := netlist.Record(n, 32, 7)
	res, err := Restore(tr, []int{ffs[4]})
	if err != nil {
		t.Fatal(err)
	}
	if res.SRR < 6 {
		t.Errorf("SRR = %.2f, want >= 6 (one tap restores most of an 8-chain)", res.SRR)
	}
	// The middle cycles of every FF must be known.
	for _, ff := range ffs {
		mid := tr.Cycles() / 2
		if res.Values[mid][ff] == X {
			t.Errorf("%s unknown at mid-trace", n.Name(ff))
		}
	}
}

// Restored values must never contradict the ground-truth simulation.
func TestRestorationSoundness(t *testing.T) {
	n, ffs := shiftChain(t, 8)
	tr := netlist.Record(n, 32, 9)
	res, err := Restore(tr, []int{ffs[2], ffs[6]})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < tr.Cycles(); c++ {
		for id := 0; id < n.N(); id++ {
			v := res.Values[c][id]
			if v == X {
				continue
			}
			if (v == T) != tr.Values[c][id] {
				t.Fatalf("net %s cycle %d restored %v, truth %v", n.Name(id), c, v, tr.Values[c][id])
			}
		}
	}
}

// An XOR with an unobservable operand stays unknown: m latches q XOR in,
// and tracing q alone never reveals in.
func TestXorWithUnknownInputStaysUnknown(t *testing.T) {
	b := netlist.NewBuilder()
	in := b.Input("in")
	in2 := b.Input("in2")
	q := b.DFF("q")
	b.Connect(q, b.Gate("g", netlist.Xor, in, in2))
	m := b.DFF("m")
	b.Connect(m, b.Gate("mix", netlist.Xor, q, in))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := netlist.Record(n, 24, 3)
	qid, _ := n.NetID("q")
	mid, _ := n.NetID("m")
	res, err := Restore(tr, []int{qid})
	if err != nil {
		t.Fatal(err)
	}
	for c := 2; c < tr.Cycles(); c++ {
		if res.Values[c][mid] != X {
			t.Fatalf("m known at cycle %d with only q traced", c)
		}
	}
}

func TestAndDominanceForward(t *testing.T) {
	// out = AND(q, in): whenever q=0, out is known 0 despite unknown in.
	b := netlist.NewBuilder()
	in := b.Input("in")
	q := b.DFF("q")
	b.Connect(q, in)
	and := b.Gate("and", netlist.And, q, in)
	o := b.DFF("o")
	b.Connect(o, and)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := netlist.Record(n, 32, 11)
	qid, _ := n.NetID("q")
	oid, _ := n.NetID("o")
	res, err := Restore(tr, []int{qid})
	if err != nil {
		t.Fatal(err)
	}
	knownWhenZero, zeros := 0, 0
	for c := 1; c < tr.Cycles()-1; c++ {
		if !tr.Values[c][qid] {
			zeros++
			if res.Values[c+1][oid] != X {
				knownWhenZero++
			}
		}
	}
	if zeros == 0 {
		t.Skip("no zero cycles in sample")
	}
	if knownWhenZero != zeros {
		t.Errorf("AND-0 dominance restored %d of %d", knownWhenZero, zeros)
	}
}

// Property: monotonicity — tracing more flip-flops never restores fewer
// state bits.
func TestRestoreMonotonicityProperty(t *testing.T) {
	n, ffs := shiftChain(t, 10)
	tr := netlist.Record(n, 24, 13)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := []int{ffs[rng.Intn(len(ffs))]}
		b := append(append([]int(nil), a...), ffs[rng.Intn(len(ffs))])
		ra, err1 := Restore(tr, a)
		rb, err2 := Restore(tr, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return rb.KnownFFStates >= ra.KnownFFStates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSRRDefinition(t *testing.T) {
	n, ffs := shiftChain(t, 4)
	tr := netlist.Record(n, 16, 1)
	res, err := Restore(tr, ffs) // trace everything
	if err != nil {
		t.Fatal(err)
	}
	if res.TracedStates != 4*16 {
		t.Errorf("TracedStates = %d", res.TracedStates)
	}
	if res.KnownFFStates != res.TracedStates {
		t.Errorf("Known = %d, want %d (all traced)", res.KnownFFStates, res.TracedStates)
	}
	if res.SRR != 1 {
		t.Errorf("SRR = %g, want 1", res.SRR)
	}
}

// Const gates restore to their fixed values without any tracing at all.
func TestConstantsAlwaysKnown(t *testing.T) {
	b := netlist.NewBuilder()
	one := b.Gate("one", netlist.Const1)
	zero := b.Gate("zero", netlist.Const0)
	q := b.DFF("q")
	b.Connect(q, one)
	q2 := b.DFF("q2")
	b.Connect(q2, zero)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := netlist.Record(n, 8, 1)
	qid, _ := n.NetID("q")
	res, err := Restore(tr, []int{qid})
	if err != nil {
		t.Fatal(err)
	}
	oneID, _ := n.NetID("one")
	zeroID, _ := n.NetID("zero")
	q2id, _ := n.NetID("q2")
	for c := 0; c < tr.Cycles(); c++ {
		if res.Values[c][oneID] != T || res.Values[c][zeroID] != F {
			t.Fatalf("cycle %d: constants not known", c)
		}
		if c > 0 && res.Values[c][q2id] != F {
			t.Fatalf("cycle %d: q2 (fed by const0) not restored", c)
		}
	}
}

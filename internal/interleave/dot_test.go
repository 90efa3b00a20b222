package interleave

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tracescale/internal/flow"
)

func TestFlowWriteDOT(t *testing.T) {
	f := flow.CacheCoherence()
	var buf bytes.Buffer
	if err := f.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`digraph "cachecoherence"`, `"GntW" [style=filled`, `shape=doublecircle`,
		`"Init" -> "Wait" [label="ReqE (1)"]`, "rankdir=LR",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("flow DOT missing %q\n%s", want, out)
		}
	}
}

func TestProductWriteDOTPlain(t *testing.T) {
	p := twoInstances(t)
	var buf bytes.Buffer
	if err := p.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "->"); got != p.NumEdges() {
		t.Errorf("DOT has %d edges, want %d", got, p.NumEdges())
	}
	if !strings.Contains(out, `label="(Init1, Init2)"`) {
		t.Errorf("DOT missing initial state label\n%s", out)
	}
}

// WriteDOT refuses products past its 4,096-state rendering limit, writing
// nothing: seven cache-coherence instances interleave into more states.
func TestProductWriteDOTErrors(t *testing.T) {
	f := flow.CacheCoherence()
	insts := make([]flow.Instance, 7)
	for i := range insts {
		insts[i] = flow.Instance{Flow: f, Index: i + 1}
	}
	p, err := New(insts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = p.WriteDOT(&buf)
	if want := fmt.Sprintf("interleave: %d states is too large for DOT rendering", p.NumStates()); err == nil || err.Error() != want {
		t.Fatalf("WriteDOT on %d states: err = %v, want %q", p.NumStates(), err, want)
	}
	if buf.Len() != 0 {
		t.Errorf("refused render wrote %d bytes", buf.Len())
	}
}

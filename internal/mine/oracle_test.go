package mine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/opensparc"
	"tracescale/internal/tbuf"
)

// refGate is the joint consistency gate oracle.check decides in closed form,
// kept as its reference: the interleaved product of the completed flows,
// indexed by the slice's tag, must hold an execution whose projection onto
// their messages is exactly the slice's entries of those messages
// (interleave.Counter in Exact mode).
func refGate(sl tagSlice, complete []*flow.Flow) (bool, error) {
	insts := make([]flow.Instance, len(complete))
	traced := map[string]bool{}
	for i, f := range complete {
		insts[i] = flow.Instance{Flow: f, Index: sl.tag}
		for _, m := range f.Messages() {
			traced[m.Name] = true
		}
	}
	p, err := interleave.New(insts)
	if err != nil {
		return false, err
	}
	var observed []flow.IndexedMsg
	for _, e := range sl.entries {
		if traced[e.Msg.Name] {
			observed = append(observed, e.Msg)
		}
	}
	c, err := p.NewCounter(traced, observed, interleave.Exact)
	if err != nil {
		return false, err
	}
	return c.Total().Sign() > 0, nil
}

// refVerdict applies the reference gate on top of refCheckSlice's
// per-candidate verdict, as the product-building oracle did: a joint
// rejection blames the first completed candidate. built reports whether a
// product was built.
func refVerdict(sl tagSlice, v verdict, flows []*flow.Flow) (ref verdict, built bool, err error) {
	if v.bad >= 0 || len(v.complete) == 0 {
		return v, false, nil
	}
	complete := make([]*flow.Flow, len(v.complete))
	for i, gi := range v.complete {
		complete[i] = flows[gi]
	}
	ok, err := refGate(sl, complete)
	if err != nil {
		return v, true, fmt.Errorf("slice (trace %d, tag %d): %w", sl.trace, sl.tag, err)
	}
	if !ok {
		v.bad = v.complete[0]
	}
	return v, true, nil
}

// oracleInputs indexes a mined flow set the way Corpus indexes its
// candidates — name ids, one group per flow in chain order — and
// materializes the chain flows the reference gate builds products over.
func oracleInputs(t testing.TB, res *Result) (groups [][]int, id map[string]int, flows []*flow.Flow) {
	t.Helper()
	id = map[string]int{}
	groups = make([][]int, len(res.Flows))
	for gi, m := range res.Flows {
		for _, o := range m.Order {
			id[o.Name] = len(id)
			groups[gi] = append(groups[gi], id[o.Name])
		}
	}
	flows, err := res.Materialize("candidate")
	if err != nil {
		t.Fatal(err)
	}
	return groups, id, flows
}

// oracleVerdict runs o.check on one slice's mined names and reads the
// outcome as a verdict: the rejected candidate, or the candidates whose
// whole chain and whose fragment the slice holds.
func oracleVerdict(o *oracle, sl tagSlice, id map[string]int) verdict {
	var ids []int32
	for _, e := range sl.entries {
		if m, ok := id[e.Msg.Name]; ok {
			ids = append(ids, int32(m))
		}
	}
	complete, partial, truncated := slices.Clone(o.complete), slices.Clone(o.partial), o.truncated
	v := verdict{bad: o.check(ids)}
	if v.bad >= 0 {
		return v
	}
	v.truncated = o.truncated > truncated
	for gi := range o.groups {
		if o.complete[gi] > complete[gi] {
			v.complete = append(v.complete, gi)
		}
		if o.partial[gi] > partial[gi] {
			v.partial = append(v.partial, gi)
		}
	}
	return v
}

// perturb returns four variants of a slice: two adjacent entries swapped,
// one entry dropped and one entry duplicated, each at a random position,
// and the slice reversed, which rejects every candidate it holds two
// messages of, in an order that need not start at the lowest index.
func perturb(sl tagSlice, rng *rand.Rand) []tagSlice {
	with := func(entries []tbuf.Entry) tagSlice { return tagSlice{trace: sl.trace, tag: sl.tag, entries: entries} }
	n := len(sl.entries)
	var out []tagSlice
	if n >= 2 {
		i := rng.Intn(n - 1)
		swapped := slices.Clone(sl.entries)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		out = append(out, with(swapped))
		reversed := slices.Clone(sl.entries)
		slices.Reverse(reversed)
		out = append(out, with(reversed))
	}
	i := rng.Intn(n)
	out = append(out, with(slices.Delete(slices.Clone(sl.entries), i, i+1)))
	i = rng.Intn(n)
	out = append(out, with(slices.Insert(slices.Clone(sl.entries), i, sl.entries[i])))
	return out
}

// namedCorpus is a trace corpus and the name it is reported under.
type namedCorpus struct {
	name   string
	traces [][]tbuf.Entry
}

// oracleCorpora are the corpora the oracle and miner differentials run
// on: T2 and synthetic corpora, and shuffle corpora of up to 5 concurrent
// flows (so the reference products stay small).
func oracleCorpora(t *testing.T) []namedCorpus {
	var corpora []namedCorpus
	for sid := 1; sid <= 3; sid++ {
		s, err := opensparc.ScenarioByID(sid)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			corpora = append(corpora, namedCorpus{fmt.Sprintf("t2-scenario%d/seed%d", sid, seed),
				simulateCorpus(t, s.Instances(), 8, []int64{seed * 10, seed*10 + 1, seed*10 + 2})})
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		insts, err := synthUniverse(12, 3, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		corpora = append(corpora, namedCorpus{fmt.Sprintf("synth/seed%d", seed),
			simulateCorpus(t, insts, 8, []int64{seed * 10, seed*10 + 1, seed*10 + 2})})
	}
	for k := 2; k <= 5; k++ {
		corpora = append(corpora, namedCorpus{fmt.Sprintf("shuffle-%d", k),
			[][]tbuf.Entry{shuffleCorpus(k, 4, 24, int64(k))}})
	}
	return corpora
}

// The oracle must return exactly the verdicts of the closed form it
// replaced with the product gate on top: on every slice of the oracle
// corpora, and on perturbed copies of each slice, which the mined
// candidates mostly reject. A rejected slice's verdict is its rejected
// candidate alone: the oracle tallies nothing else for it.
func TestCheckSliceMatchesProductGate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	corpora := oracleCorpora(t)
	compared, products, rejected := 0, 0, 0
	for _, c := range corpora {
		res, err := Corpus(c.traces, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		groups, id, flows := oracleInputs(t, res)
		var input []tagSlice
		for _, sl := range refSliceCorpus(c.traces) {
			input = append(input, sl)
			input = append(input, perturb(sl, rng)...)
		}
		o := newOracle(groups, len(id))
		for i, want := range refRunOracle(input, groups, id) {
			ref, built, err := refVerdict(input[i], want, flows)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if ref.bad >= 0 {
				ref = verdict{bad: ref.bad}
			}
			if v := oracleVerdict(o, input[i], id); !reflect.DeepEqual(v, ref) {
				t.Errorf("%s: slice (trace %d, tag %d): verdict %+v, product gate says %+v",
					c.name, input[i].trace, input[i].tag, v, ref)
			}
			compared++
			if built {
				products++
			}
			if ref.bad >= 0 {
				rejected++
			}
		}
	}
	t.Logf("%d verdicts compared over %d corpora: %d reference products built, %d slices rejected",
		compared, len(corpora), products, rejected)
	if rejected == 0 {
		t.Error("no perturbed slice was rejected; the comparison never saw a rejecting verdict")
	}
}

// mineOptions are the Options the miner differentials sweep: default,
// lenient and strict support, under default and relaxed confidence.
var mineOptions = func() []Options {
	var out []Options
	for _, support := range []int{0, 1, 3} {
		for _, confidence := range []float64{0, 0.6, 0.8} {
			out = append(out, Options{MinSupport: support, MinConfidence: confidence})
		}
	}
	return out
}()

// sameMining fails unless Corpus and refCorpus agree on traces under opt:
// deep-equal results, or the same error text.
func sameMining(t *testing.T, what string, traces [][]tbuf.Entry, opt Options) {
	t.Helper()
	got, err := Corpus(traces, opt)
	want, wantErr := refCorpus(traces, opt)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s %+v: error %v, reference %v", what, opt, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v: mined %+v, reference %+v", what, opt, got, want)
	}
}

// Corpus must mine exactly what refCorpus mines, under every swept
// Options, on the oracle corpora and on perturbed copies of each — an
// adjacent swap, a dropped entry, a duplicated entry or a retagged entry
// at a random position — which also reach the repair and error paths.
func TestCorpusMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range oracleCorpora(t) {
		variants := [][][]tbuf.Entry{c.traces}
		for kind := 0; kind < 8; kind++ {
			variants = append(variants, perturbCorpus(c.traces, kind%4, rng))
		}
		for vi, traces := range variants {
			for _, opt := range mineOptions {
				sameMining(t, fmt.Sprintf("%s/variant%d", c.name, vi), traces, opt)
			}
		}
	}
}

// perturbCorpus returns a copy of traces with one entry of a random trace
// changed at a random position: kind 0 swaps it with the next, 1 drops
// it, 2 duplicates it and 3 moves it to another entry's tag.
func perturbCorpus(traces [][]tbuf.Entry, kind int, rng *rand.Rand) [][]tbuf.Entry {
	out := slices.Clone(traces)
	ti := rng.Intn(len(out))
	tr := slices.Clone(out[ti])
	if len(tr) < 2 {
		return out
	}
	i := rng.Intn(len(tr) - 1)
	switch kind {
	case 0:
		tr[i], tr[i+1] = tr[i+1], tr[i]
	case 1:
		tr = slices.Delete(tr, i, i+1)
	case 2:
		tr = slices.Insert(tr, i, tr[i])
	case 3:
		tr[i].Msg.Index = tr[rng.Intn(len(tr))].Msg.Index
	}
	out[ti] = tr
	return out
}

// decodeCorpus reads fuzz bytes as a corpus of at most 3 traces: byte 0xff
// starts the next trace, and any other byte b is an entry of name b%8,
// tag 1+(b/8)%6 and b/48 captured bits.
func decodeCorpus(data []byte) [][]tbuf.Entry {
	traces := [][]tbuf.Entry{nil}
	for _, b := range data {
		if b == 0xff {
			if len(traces) < 3 {
				traces = append(traces, nil)
			}
			continue
		}
		last := len(traces) - 1
		traces[last] = append(traces[last], tbuf.Entry{
			Msg:  flow.IndexedMsg{Name: string(rune('a' + b%8)), Index: 1 + int(b/8)%6},
			Bits: int(b / 48),
		})
	}
	return traces
}

// Corpus must never panic on any corpus, and must mine what refCorpus
// mines under every swept Options. When it accepts one, every mined
// name belongs to exactly one flow and to neither censored class; in every
// slice each flow's projection is its whole chain or a contiguous fragment
// of it, as Tags and Skipped count; and the flows whose whole chain appears
// pass the reference product gate.
func FuzzCorpus(f *testing.F) {
	f.Add([]byte{0, 1, 2, 8, 9, 10})                       // one flow a→b→c over two tags
	f.Add([]byte{0, 3, 1, 4, 8, 9, 11, 12, 0xff, 3, 0, 4}) // two flows, a second trace
	f.Add([]byte{0, 1, 8, 9, 16, 17, 24, 25, 33, 32})      // one inverted slice
	f.Add([]byte{0, 0, 8, 1, 9, 2, 10})                    // a shared name
	f.Fuzz(func(t *testing.T, data []byte) {
		traces := decodeCorpus(data)
		for _, opt := range mineOptions {
			sameMining(t, "corpus", traces, opt)
		}
		res, err := Corpus(traces, Options{})
		if err != nil {
			return
		}
		type place struct{ flow, rank int }
		at := map[string]place{}
		for fi, m := range res.Flows {
			for r, o := range m.Order {
				if prev, dup := at[o.Name]; dup {
					t.Fatalf("%s mined into flows %d and %d", o.Name, prev.flow, fi)
				}
				at[o.Name] = place{fi, r}
			}
		}
		for _, name := range slices.Concat(res.Shared, res.LowSupport) {
			if _, ok := at[name]; ok {
				t.Fatalf("censored %s was also mined", name)
			}
		}
		flows, err := res.Materialize("mined")
		if err != nil {
			t.Fatal(err)
		}
		tags := make([]int, len(res.Flows))
		skipped := make([]int, len(res.Flows))
		for _, sl := range refSliceCorpus(traces) {
			// Each flow's projection must be a contiguous run of its chain
			// ranks: the whole chain, or a truncation-shaped fragment.
			first := make([]int, len(res.Flows))
			seen := make([]int, len(res.Flows))
			for _, e := range sl.entries {
				p, ok := at[e.Msg.Name]
				if !ok {
					continue
				}
				if seen[p.flow] == 0 {
					first[p.flow] = p.rank
				} else if p.rank != first[p.flow]+seen[p.flow] {
					t.Fatalf("slice (trace %d, tag %d): flow %d's projection is no contiguous run of its chain", sl.trace, sl.tag, p.flow)
				}
				seen[p.flow]++
			}
			var complete []*flow.Flow
			for fi, m := range res.Flows {
				switch seen[fi] {
				case 0:
				case len(m.Order):
					tags[fi]++
					complete = append(complete, flows[fi])
				default:
					skipped[fi]++
				}
			}
			if len(complete) == 0 {
				continue
			}
			ok, err := refGate(sl, complete)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("slice (trace %d, tag %d): the product of its %d completed flows rejects it", sl.trace, sl.tag, len(complete))
			}
		}
		for fi, m := range res.Flows {
			if m.Tags != tags[fi] || m.Skipped != skipped[fi] {
				t.Fatalf("flow %d reports %d complete and %d truncated slices, the corpus holds %d and %d",
					fi, m.Tags, m.Skipped, tags[fi], skipped[fi])
			}
		}
	})
}

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

// refGate is the joint consistency gate checkSlice decides in closed form,
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

// refVerdict applies the reference gate on top of checkSlice's
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

// perturb returns three variants of a slice, each at a random position:
// two adjacent entries swapped, one entry dropped, one entry duplicated.
func perturb(sl tagSlice, rng *rand.Rand) []tagSlice {
	with := func(entries []tbuf.Entry) tagSlice { return tagSlice{trace: sl.trace, tag: sl.tag, entries: entries} }
	n := len(sl.entries)
	var out []tagSlice
	if n >= 2 {
		i := rng.Intn(n - 1)
		swapped := slices.Clone(sl.entries)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		out = append(out, with(swapped))
	}
	i := rng.Intn(n)
	out = append(out, with(slices.Delete(slices.Clone(sl.entries), i, i+1)))
	i = rng.Intn(n)
	out = append(out, with(slices.Insert(slices.Clone(sl.entries), i, sl.entries[i])))
	return out
}

// The closed-form oracle must return exactly the verdicts that the
// product gate on top of its per-candidate pass returns: on every slice
// of T2 and synthetic corpora, on shuffle corpora of up to 5 concurrent
// flows (so the reference products stay small), and on perturbed copies
// of each slice, which the mined candidates mostly reject.
func TestCheckSliceMatchesProductGate(t *testing.T) {
	type corpus struct {
		name   string
		traces [][]tbuf.Entry
	}
	var corpora []corpus
	for sid := 1; sid <= 3; sid++ {
		s, err := opensparc.ScenarioByID(sid)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			corpora = append(corpora, corpus{fmt.Sprintf("t2-scenario%d/seed%d", sid, seed),
				simulateCorpus(t, s.Instances(), 8, []int64{seed * 10, seed*10 + 1, seed*10 + 2})})
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		insts, err := synthUniverse(12, 3, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		corpora = append(corpora, corpus{fmt.Sprintf("synth/seed%d", seed),
			simulateCorpus(t, insts, 8, []int64{seed * 10, seed*10 + 1, seed*10 + 2})})
	}
	for k := 2; k <= 5; k++ {
		corpora = append(corpora, corpus{fmt.Sprintf("shuffle-%d", k),
			[][]tbuf.Entry{shuffleCorpus(k, 4, 24, int64(k))}})
	}

	rng := rand.New(rand.NewSource(1))
	compared, products, rejected := 0, 0, 0
	for _, c := range corpora {
		res, err := Corpus(c.traces, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		groups, id, flows := oracleInputs(t, res)
		var input []tagSlice
		for _, sl := range sliceCorpus(c.traces) {
			input = append(input, sl)
			input = append(input, perturb(sl, rng)...)
		}
		for i, v := range runOracle(input, groups, id) {
			ref, built, err := refVerdict(input[i], v, flows)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !reflect.DeepEqual(v, ref) {
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

// Corpus must never panic on any corpus. When it accepts one, every mined
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
		for _, sl := range sliceCorpus(traces) {
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

package reconstruct

import (
	"fmt"
	"math/big"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// shapeReader doles out fuzz bytes one at a time, zero once exhausted, so
// every byte string decodes to some instance set.
type shapeReader struct {
	b []byte
	i int
}

func (r *shapeReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// shapedFlow decodes a flow of 2-5 states from r. Edges run from lower to
// higher state ids, so the flow is a DAG; parallel edges and a message
// name shared by every flow ("sh") occur. Every state without an incoming
// edge is initial and every state without an outgoing edge is a stop
// state, which keeps each state on an execution; on top of that, further
// initial states, stop states with outgoing edges, and atomic states are
// drawn from r.
func shapedFlow(t *testing.T, name string, r *shapeReader) *flow.Flow {
	t.Helper()
	n := 2 + r.next()%4
	states := make([]string, n)
	for i := range states {
		states[i] = fmt.Sprintf("s%d", i)
	}
	b := flow.NewBuilder(name)
	b.States(states...)
	pool := []string{name + "a", name + "b", name + "c", "sh"}
	declared := map[string]bool{}
	edge := func(u, v int, msg string) {
		if !declared[msg] {
			declared[msg] = true
			b.Message(flow.Message{Name: msg, Width: 1})
		}
		b.Edge(states[u], states[v], msg)
	}
	hasIn, hasOut := make([]bool, n), make([]bool, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			bits := r.next()
			if bits%3 == 0 {
				continue
			}
			edge(u, v, pool[(bits>>2)%4])
			if bits&0x40 != 0 {
				edge(u, v, pool[((bits>>2)+1)%4])
			}
			hasIn[v], hasOut[u] = true, true
		}
	}
	for s := 0; s < n; s++ {
		isInit := !hasIn[s] || r.next()%4 == 0
		isStop := !hasOut[s] || r.next()%3 == 0
		if isInit {
			b.Init(states[s])
		}
		if isStop {
			b.Stop(states[s])
		}
		if !isInit && !isStop && r.next()%2 == 0 {
			b.Atomic(states[s])
		}
	}
	f, err := b.Build()
	if err != nil {
		t.Fatalf("shaped flow does not build: %v", err)
	}
	return f
}

// shapedInstances decodes 1-3 legally indexed instances of up to two
// shaped flows. Indices are drawn per flow from disjoint pairs, so
// instances of different flows may or may not share a tag.
func shapedInstances(t *testing.T, shape []byte) []flow.Instance {
	t.Helper()
	r := &shapeReader{b: shape}
	flows := []*flow.Flow{shapedFlow(t, "f", r), shapedFlow(t, "g", r)}
	k := 1 + r.next()%3
	used := make([]int, len(flows))
	insts := make([]flow.Instance, k)
	for i := range insts {
		fi := r.next() % len(flows)
		insts[i] = flow.Instance{Flow: flows[fi], Index: 2*used[fi] + 1 + r.next()%2}
		used[fi]++
	}
	return insts
}

// maxFuzzExecutions bounds the brute-force enumeration FuzzCounts checks
// the counters against.
const maxFuzzExecutions = 1 << 12

// FuzzCounts is the differential pin on the product's one counting DP
// (interleave.Counter) and the pair DP built on it: on small fuzzed
// instance sets, every count equals the same count taken over the
// executions Product.Executions enumerates.
//
//   - Admit's closed form equals the built product's state count;
//   - TotalPaths equals the number of executions;
//   - ConsistentPaths and ConsistentPathsUnindexed, in Prefix and Exact
//     mode, equal a filter over the executions' projections, matching
//     observed entries by indexed message and by name respectively;
//   - PairCount equals Σ n² over the classes of executions with equal
//     traced projections.
//
// The observation is a prefix of some execution's projection, with its
// first entry's instance tag optionally bumped so that indexed matching
// can fail where unindexed matching succeeds.
func FuzzCounts(f *testing.F) {
	// Two instances: a 5-state flow with two initial states, a stop state
	// with an outgoing edge, an atomic state and a parallel edge, beside a
	// 3-state flow with an atomic state; the two share tag 1 and the
	// message "sh".
	f.Add([]byte{3, 1, 0, 13, 0, 4, 0, 8, 0, 0x41, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1,
		1, 13, 4, 8, 1, 1, 1, 0, 1,
		1, 0, 0, 1, 0}, uint16(0x25), uint16(0x0283))
	// Three instances: two of a chain through an atomic state into a
	// parallel edge, and one of a 2-state flow whose initial state is also
	// a stop state with an outgoing edge.
	f.Add([]byte{1, 1, 0, 0x41, 1, 1, 1, 0, 1,
		0, 13, 0, 0,
		2, 0, 0, 0, 0, 1, 0}, uint16(0x0b), uint16(0x0105))
	// Exhausted input: edgeless flows whose states all start and stop.
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, shape []byte, tracedMask, pick uint16) {
		insts := shapedInstances(t, shape)
		states, err := interleave.Admit(insts)
		if err != nil {
			t.Fatalf("Admit: %v", err)
		}
		p, err := interleave.New(insts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if states != p.NumStates() {
			t.Fatalf("Admit = %d states, product has %d", states, p.NumStates())
		}

		var execs [][]flow.IndexedMsg
		p.Executions(func(ex interleave.Execution) bool {
			execs = append(execs, ex.Trace(p))
			return len(execs) <= maxFuzzExecutions
		})
		if len(execs) > maxFuzzExecutions {
			t.Skipf("over %d executions to enumerate", maxFuzzExecutions)
		}
		if got := p.TotalPaths(); got.Cmp(big.NewInt(int64(len(execs)))) != 0 {
			t.Fatalf("TotalPaths = %v, executions = %d", got, len(execs))
		}

		traced := map[string]bool{}
		for i, name := range messageNames(p) {
			if tracedMask&(1<<(i%16)) != 0 {
				traced[name] = true
			}
		}
		var observed []flow.IndexedMsg
		if len(execs) > 0 {
			proj := interleave.ProjectTrace(execs[int(pick)%len(execs)], traced)
			observed = append(observed, proj[:int(pick>>8)%(len(proj)+1)]...)
			if pick&0x80 != 0 && len(observed) > 0 {
				observed[0].Index++
			}
		}
		names := make([]string, len(observed))
		for i, m := range observed {
			names[i] = m.Name
		}

		projs := make([][]flow.IndexedMsg, len(execs))
		classes := map[string]int64{}
		for i, ex := range execs {
			projs[i] = interleave.ProjectTrace(ex, traced)
			classes[fmt.Sprint(projs[i])]++
		}
		for _, mode := range []interleave.MatchMode{interleave.Prefix, interleave.Exact} {
			indexed, byName := 0, 0
			for _, proj := range projs {
				if len(proj) < len(observed) || (mode == interleave.Exact && len(proj) > len(observed)) {
					continue
				}
				sameIdx, sameName := true, true
				for i, m := range observed {
					sameIdx = sameIdx && proj[i] == m
					sameName = sameName && proj[i].Name == m.Name
				}
				if sameIdx {
					indexed++
				}
				if sameName {
					byName++
				}
			}
			got, err := p.ConsistentPaths(traced, observed, mode)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(big.NewInt(int64(indexed))) != 0 {
				t.Errorf("mode %v: ConsistentPaths(%v) = %v, brute force = %d", mode, observed, got, indexed)
			}
			got, err = p.ConsistentPathsUnindexed(traced, names, mode)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(big.NewInt(int64(byName))) != 0 {
				t.Errorf("mode %v: ConsistentPathsUnindexed(%v) = %v, brute force = %d", mode, names, got, byName)
			}
		}

		var pairs int64
		for _, n := range classes {
			pairs += n * n
		}
		got, err := PairCount(p, traced)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(pairs)) != 0 {
			t.Errorf("PairCount = %v, Σ n² over projection classes = %d", got, pairs)
		}
	})
}

// TestCountPathsExponential pins the counters past 64 bits: a ladder of
// k diamonds, each a choice between two distinctly labeled branches, has
// 2^k executions. Observing the first branch halves them; tracing nothing
// makes every pair of executions collide (2^2k pairs), and tracing every
// message leaves only the diagonal (2^k).
func TestCountPathsExponential(t *testing.T) {
	const k = 70
	b := flow.NewBuilder("ladder")
	for i := 0; i <= k; i++ {
		b.State(fmt.Sprintf("d%d", i))
		if i < k {
			b.States(fmt.Sprintf("u%d", i), fmt.Sprintf("l%d", i))
		}
	}
	b.Init("d0")
	b.Stop(fmt.Sprintf("d%d", k))
	var all []string
	for i := 0; i < k; i++ {
		for _, side := range []string{"u", "l"} {
			in, out := fmt.Sprintf("%s%d", side, i), fmt.Sprintf("%sx%d", side, i)
			b.Message(flow.Message{Name: in, Width: 1})
			b.Message(flow.Message{Name: out, Width: 1})
			b.Edge(fmt.Sprintf("d%d", i), in, in)
			b.Edge(in, fmt.Sprintf("d%d", i+1), out)
			all = append(all, in, out)
		}
	}
	ladder, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New([]flow.Instance{{Flow: ladder, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pow := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }

	if got := p.TotalPaths(); got.Cmp(pow(k)) != 0 {
		t.Errorf("TotalPaths = %v, want 2^%d", got, k)
	}
	traced := map[string]bool{"u0": true}
	observed := []flow.IndexedMsg{{Name: "u0", Index: 1}}
	for _, mode := range []interleave.MatchMode{interleave.Prefix, interleave.Exact} {
		got, err := p.ConsistentPaths(traced, observed, mode)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(pow(k-1)) != 0 {
			t.Errorf("mode %v: ConsistentPaths = %v, want 2^%d", mode, got, k-1)
		}
		got, err = p.ConsistentPathsUnindexed(traced, []string{"u0"}, mode)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(pow(k-1)) != 0 {
			t.Errorf("mode %v: ConsistentPathsUnindexed = %v, want 2^%d", mode, got, k-1)
		}
	}
	blind, err := PairCount(p, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if blind.Cmp(pow(2*k)) != 0 {
		t.Errorf("PairCount(nothing traced) = %v, want 2^%d", blind, 2*k)
	}
	full, err := PairCount(p, tracedSet(all))
	if err != nil {
		t.Fatal(err)
	}
	if full.Cmp(pow(k)) != 0 {
		t.Errorf("PairCount(everything traced) = %v, want 2^%d", full, k)
	}
}

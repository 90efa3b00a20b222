package reconstruct

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
)

// refPairCount is the pair DP PairCount replaced, kept as its reference:
// closures keyed by indexed message in maps, and a memo over ordered
// state pairs that forms every landing-pair product c₁·c₂·f(w₁,w₂)
// directly.
func refPairCount(p *interleave.Product, traced map[string]bool) (*big.Int, error) {
	n := p.NumStates()
	if err := CheckAmbiguityStates(n); err != nil {
		return nil, err
	}
	stopTail, err := p.NewCounter(traced, nil, interleave.Exact)
	if err != nil {
		return nil, err
	}

	type landing struct {
		w int
		c *big.Int
	}
	closure := make([]map[flow.IndexedMsg][]landing, n)
	var closureOf func(u int) map[flow.IndexedMsg][]landing
	closureOf = func(u int) map[flow.IndexedMsg][]landing {
		if cl := closure[u]; cl != nil {
			return cl
		}
		acc := make(map[flow.IndexedMsg]map[int]*big.Int)
		bump := func(m flow.IndexedMsg, w int, c *big.Int) {
			byW := acc[m]
			if byW == nil {
				byW = make(map[int]*big.Int)
				acc[m] = byW
			}
			if got := byW[w]; got != nil {
				got.Add(got, c)
			} else {
				byW[w] = new(big.Int).Set(c)
			}
		}
		one := big.NewInt(1)
		for _, e := range p.Out(u) {
			m := p.Msg(e)
			if traced[m.Name] {
				bump(m, e.To, one)
			} else {
				for cm, landings := range closureOf(e.To) {
					for _, l := range landings {
						bump(cm, l.w, l.c)
					}
				}
			}
		}
		cl := make(map[flow.IndexedMsg][]landing, len(acc))
		for m, byW := range acc {
			ls := make([]landing, 0, len(byW))
			for w, c := range byW {
				ls = append(ls, landing{w, c})
			}
			sort.Slice(ls, func(a, b int) bool { return ls[a].w < ls[b].w })
			cl[m] = ls
		}
		closure[u] = cl
		return cl
	}

	pair := make(map[[2]int]*big.Int)
	var f func(u, v int) *big.Int
	f = func(u, v int) *big.Int {
		key := [2]int{u, v}
		if c := pair[key]; c != nil {
			return c
		}
		c := new(big.Int).Mul(stopTail.From(u, 0), stopTail.From(v, 0))
		pair[key] = c
		term := new(big.Int)
		for m, lu := range closureOf(u) {
			lv, ok := closureOf(v)[m]
			if !ok {
				continue
			}
			for _, a := range lu {
				for _, b := range lv {
					term.Mul(a.c, b.c)
					term.Mul(term, f(a.w, b.w))
					c.Add(c, term)
				}
			}
		}
		return c
	}

	total := new(big.Int)
	seen := make(map[int]bool, len(p.Init()))
	inits := make([]int, 0, len(p.Init()))
	for _, s := range p.Init() {
		if !seen[s] {
			seen[s] = true
			inits = append(inits, s)
		}
	}
	for _, u := range inits {
		for _, v := range inits {
			total.Add(total, f(u, v))
		}
	}
	return total, nil
}

// TestPairCountMatchesReferenceT2 is the differential at the size the
// campaign scores: on T2 scenarios 1-3, PairCount equals the reference DP
// for every single traced message and for 16 seeded random subsets of
// each scenario's messages. Those products carry long untraced runs,
// merged closure landings and shared partner sums that FuzzCounts' small
// products rarely reach.
func TestPairCountMatchesReferenceT2(t *testing.T) {
	for _, s := range opensparc.Scenarios() {
		p, err := interleave.New(s.Instances())
		if err != nil {
			t.Fatal(err)
		}
		names := messageNames(p)
		sets := make([][]string, 0, len(names)+16)
		for _, n := range names {
			sets = append(sets, []string{n})
		}
		rng := rand.New(rand.NewSource(int64(s.ID)))
		for i := 0; i < 16; i++ {
			var set []string
			for _, n := range names {
				if rng.Intn(3) == 0 {
					set = append(set, n)
				}
			}
			sets = append(sets, set)
		}
		for _, set := range sets {
			traced := tracedSet(set)
			want, err := refPairCount(p, traced)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PairCount(p, traced)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("scenario %d, traced %v: PairCount = %v, reference = %v", s.ID, set, got, want)
			}
		}
	}
}

// TestPairCountMetrics pins PairCount's per-call metrics on the paper's
// running example with its selected set {ReqE, GntE}: one count, and the
// memo entries the DP filled. Each indexed message lands in one state, so
// f only meets diagonal pairs: 12 cells, one per product state except
// (D,I), (I,D) and (D,D), which are entered only through the untraced Ack
// and so appear only inside closures and stop tails; and 14 partner sums,
// one per (message, landing) of a visited state's closure.
func TestPairCountMetrics(t *testing.T) {
	f := flow.CacheCoherence()
	reg := obs.NewRegistry()
	p, err := interleave.NewObserved([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PairCount(p, map[string]bool{"ReqE": true, "GntE": true}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"reconstruct.pair.counts": 1,
		"reconstruct.pair.cells":  12,
		"reconstruct.pair.sums":   14,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

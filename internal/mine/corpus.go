package mine

import (
	"fmt"
	"sort"

	"tracescale/internal/flow"
	"tracescale/internal/spec"
	"tracescale/internal/tbuf"
)

// Options tunes corpus mining.
type Options struct {
	// MinSupport is the number of tag slices a message — and a message
	// pair — must occur in before its statistics are trusted (default 2).
	MinSupport int
	// MinConfidence is the fraction of a pair's co-occurrences that must
	// agree on one order for the pair to count as invariantly ordered,
	// i.e. same-flow. Default 1.0 (strictly invariant); must lie in
	// (0.5, 1] so at most one direction can win.
	MinConfidence float64
}

func (o Options) withDefaults() (Options, error) {
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.MinSupport < 1 {
		return o, fmt.Errorf("mine: min support %d must be positive", o.MinSupport)
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 1
	}
	if o.MinConfidence <= 0.5 || o.MinConfidence > 1 {
		return o, fmt.Errorf("mine: min confidence %g must be in (0.5, 1]", o.MinConfidence)
	}
	return o, nil
}

// Result is the outcome of mining an interleaved multi-flow corpus.
type Result struct {
	// Flows are the accepted flows in canonical order (ascending first
	// message name). Per flow, Order/Width/Count aggregate every
	// occurrence, Tags counts the slices in which the flow ran to
	// completion, and Skipped the slices holding only a truncation-shaped
	// fragment.
	Flows []*Mined
	// Traces is the number of corpus traces, Slices the number of
	// (trace, tag) transaction slices mined.
	Traces int
	Slices int
	// Truncated counts slices in which at least one accepted flow
	// appeared only as a contiguous fragment.
	Truncated int
	// Shared lists message names dropped because they occurred more than
	// once within some slice: under legal indexing each flow contributes
	// at most one instance per tag, so a repeated name is shared by
	// several flows (like the T2 siincu, carried by both PIOR and Mondo)
	// and cannot be attributed to one. Sorted.
	Shared []string
	// LowSupport lists message names dropped for occurring in fewer than
	// MinSupport slices. Sorted.
	LowSupport []string
	// Splits counts repair steps: messages ejected from a candidate flow
	// whose merged order could not explain every trace.
	Splits int
}

// slice is one transaction slice: the entries of one tag within one trace,
// in capture order. Same-index instances of different flows share a slice
// — that interleaving is exactly what the miner must see through.
type tagSlice struct {
	trace, tag int
	entries    []tbuf.Entry
}

func sliceCorpus(traces [][]tbuf.Entry) []tagSlice {
	var out []tagSlice
	for ti, tr := range traces {
		at := map[int]int{} // tag -> index into out
		for _, e := range tr {
			i, ok := at[e.Msg.Index]
			if !ok {
				i = len(out)
				at[e.Msg.Index] = i
				out = append(out, tagSlice{trace: ti, tag: e.Msg.Index})
			}
			out[i].entries = append(out[i].entries, e)
		}
	}
	return out
}

// Corpus mines a flow set from an interleaved multi-flow trace corpus.
//
// Candidate generation follows the frequent-subsequence style of the flow
// mining literature: traces are cut into per-tag transaction slices, the
// order statistics of every frequent message pair are collected across
// slices (the frequent 2-subsequences), and pairs whose order is invariant
// at MinConfidence are taken as same-flow evidence. Messages are then
// grown greedily into chains: each joins the first candidate flow it is
// order-invariant with in full, and every chain's message order is the
// one the pair statistics dictate.
//
// Interleaving artifacts are pruned by acceptance against trace
// consistency: a candidate flow set survives only if, slice by slice, some
// execution of its completed instances' interleaved product explains the
// observed entries and every partial projection is a truncation-shaped
// contiguous fragment. Candidates are chains, so that test is decided in
// closed form by one pass over each slice (see checkSlice); the cost is
// linear in corpus entries per acceptance round. When a slice rejects a
// candidate flow, the weakest member is ejected into its own flow and
// acceptance reruns; Splits records how often.
//
// Two censored classes are excluded and reported rather than guessed at:
// names occurring more than once per slice (shared across flows —
// unattributable) and names below MinSupport. An entry with an empty
// message name is malformed and rejects the corpus.
func Corpus(traces [][]tbuf.Entry, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	slices := sliceCorpus(traces)
	if len(slices) == 0 {
		return nil, fmt.Errorf("mine: empty corpus")
	}

	// Per-name statistics and the shared/low-support censors.
	type nameStat struct{ width, count, support int }
	stats := map[string]*nameStat{}
	shared := map[string]bool{}
	for _, sl := range slices {
		perSlice := map[string]int{}
		for _, e := range sl.entries {
			if e.Msg.Name == "" {
				return nil, fmt.Errorf("mine: slice (trace %d, tag %d): message with empty name", sl.trace, sl.tag)
			}
			st := stats[e.Msg.Name]
			if st == nil {
				st = &nameStat{}
				stats[e.Msg.Name] = st
			}
			st.count++
			if e.Bits > st.width {
				st.width = e.Bits
			}
			perSlice[e.Msg.Name]++
		}
		for name, k := range perSlice {
			stats[name].support++
			if k > 1 {
				shared[name] = true
			}
		}
	}
	res := &Result{Traces: len(traces), Slices: len(slices)}
	var frequent []string
	for name, st := range stats {
		switch {
		case shared[name]:
			res.Shared = append(res.Shared, name)
		case st.support < opt.MinSupport:
			res.LowSupport = append(res.LowSupport, name)
		default:
			frequent = append(frequent, name)
		}
	}
	sort.Strings(res.Shared)
	sort.Strings(res.LowSupport)
	sort.Strings(frequent)
	if len(frequent) == 0 {
		return nil, fmt.Errorf("mine: no message occurs in %d or more slices (%d shared, %d below support)",
			opt.MinSupport, len(res.Shared), len(res.LowSupport))
	}

	// Pair order statistics: before[i][j] = slices where i preceded j.
	// Frequent names occur at most once per slice, so "preceded" is
	// unambiguous.
	n := len(frequent)
	id := make(map[string]int, n)
	for i, name := range frequent {
		id[name] = i
	}
	before := make([][]int, n)
	for i := range before {
		before[i] = make([]int, n)
	}
	for _, sl := range slices {
		var present []int // ids in temporal order
		for _, e := range sl.entries {
			if i, ok := id[e.Msg.Name]; ok {
				present = append(present, i)
			}
		}
		for a := 0; a < len(present); a++ {
			for b := a + 1; b < len(present); b++ {
				before[present[a]][present[b]]++
			}
		}
	}
	// dir[i][j] = +1 when i invariantly precedes j, -1 when it follows,
	// 0 when the pair is incomparable (cross-flow, or under-supported).
	dir := make([][]int, n)
	for i := range dir {
		dir[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cooc := before[i][j] + before[j][i]
			if cooc < opt.MinSupport {
				continue
			}
			switch {
			case float64(before[i][j]) >= opt.MinConfidence*float64(cooc):
				dir[i][j], dir[j][i] = 1, -1
			case float64(before[j][i]) >= opt.MinConfidence*float64(cooc):
				dir[i][j], dir[j][i] = -1, 1
			}
		}
	}

	// Grow flows greedily: in name order, each message joins the first
	// candidate it is order-comparable with in full.
	var groups [][]int
	for i := 0; i < n; i++ {
		placed := false
		for gi := range groups {
			ok := true
			for _, m := range groups[gi] {
				if dir[m][i] == 0 {
					ok = false
					break
				}
			}
			if ok {
				groups[gi] = append(groups[gi], i)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{i})
		}
	}

	// Order each candidate by its predecessor count. A transitive total
	// order has distinct ranks 0..k-1; a rank collision means the pair
	// directions form a cycle, so the collision's lexicographically last
	// member is ejected into its own flow (appended, so the loop orders
	// it too).
	eject := func(g []int, out int) []int {
		kept := g[:0]
		for _, m := range g {
			if m != out {
				kept = append(kept, m)
			}
		}
		return kept
	}
	for gi := 0; gi < len(groups); gi++ {
		for {
			g := groups[gi]
			rank := make(map[int]int, len(g))
			for _, m := range g {
				r := 0
				for _, o := range g {
					if dir[o][m] == 1 {
						r++
					}
				}
				rank[m] = r
			}
			collision := -1
			seen := make([]int, len(g))
			for i := range seen {
				seen[i] = -1
			}
			for _, m := range g {
				if other := seen[rank[m]]; other >= 0 {
					// Eject the lexicographically last of the colliding pair.
					collision = m
					if frequent[other] > frequent[m] {
						collision = other
					}
					break
				}
				seen[rank[m]] = m
			}
			if collision < 0 {
				byRank := make([]int, len(g))
				for _, m := range g {
					byRank[rank[m]] = m
				}
				groups[gi] = byRank
				break
			}
			groups[gi] = eject(g, collision)
			groups = append(groups, []int{collision})
			res.Splits++
		}
	}

	// Widths the mined flows are materialized with, per frequent id,
	// clamped to 1 bit: flow validation rejects zero-width messages and
	// hand-fed entries may omit Bits.
	widths := make([]int, n)
	for i, name := range frequent {
		widths[i] = stats[name].width
		if widths[i] < 1 {
			widths[i] = 1
		}
	}

	// Acceptance against trace consistency, with eject-and-retry repair.
	for {
		verdicts := runOracle(slices, groups, id)
		bad := -1
		for _, v := range verdicts {
			if v.bad >= 0 {
				bad = v.bad
				break
			}
		}
		if bad < 0 {
			// Accepted: aggregate the per-slice completeness verdicts.
			complete := make([]int, len(groups))
			skipped := make([]int, len(groups))
			for _, v := range verdicts {
				if v.truncated {
					res.Truncated++
				}
				for _, gi := range v.complete {
					complete[gi]++
				}
				for _, gi := range v.partial {
					skipped[gi]++
				}
			}
			for gi, g := range groups {
				m := &Mined{Tags: complete[gi], Skipped: skipped[gi]}
				for _, mid := range g {
					m.Order = append(m.Order, Observation{Name: frequent[mid], Width: widths[mid], Count: stats[frequent[mid]].count})
				}
				res.Flows = append(res.Flows, m)
			}
			sort.Slice(res.Flows, func(i, j int) bool {
				return res.Flows[i].Order[0].Name < res.Flows[j].Order[0].Name
			})
			return res, nil
		}
		g := groups[bad]
		if len(g) == 1 {
			return nil, fmt.Errorf("mine: message %s cannot be explained as a linear flow by the corpus", frequent[g[0]])
		}
		// Eject the member with the least co-occurrence evidence binding
		// it to the rest (ties: lexicographically last), preserving order.
		out, outCooc := -1, 0
		for _, m := range g {
			c := 0
			for _, o := range g {
				if o != m {
					c += before[m][o] + before[o][m]
				}
			}
			if out < 0 || c < outCooc || (c == outCooc && frequent[m] > frequent[out]) {
				out, outCooc = m, c
			}
		}
		groups[bad] = eject(g, out)
		groups = append(groups, []int{out})
		res.Splits++
	}
}

// verdict is one slice's oracle outcome.
type verdict struct {
	bad       int // group index of the first rejected candidate, -1 = consistent
	truncated bool
	complete  []int // group ids whose flow ran to completion in the slice
	partial   []int // group ids present only as a fragment
}

// runOracle checks every slice against the candidate flow set.
func runOracle(slices []tagSlice, groups [][]int, id map[string]int) []verdict {
	gid := make([]int, len(id))   // name id -> group
	grank := make([]int, len(id)) // name id -> rank within group
	for gi, g := range groups {
		for r, mid := range g {
			gid[mid], grank[mid] = gi, r
		}
	}
	verdicts := make([]verdict, len(slices))
	for i, sl := range slices {
		verdicts[i] = checkSlice(sl, groups, gid, grank, id)
	}
	return verdicts
}

// checkSlice classifies each candidate's projection in one slice —
// complete, truncation-shaped fragment, absent, or inconsistent — and so
// decides whether the candidate set explains the slice.
//
// Joint consistency needs no product. The slice is explained when the
// interleaved product of the completed candidates has an execution whose
// projection onto their messages is exactly the slice's entries of those
// messages. Candidates are chains with no atomic states, so that product
// is the full shuffle of their chains: every merge of the chains is an
// execution. A candidate counts as complete only when its projection is its
// whole chain in rank order, each message once, and every entry carries the
// slice's tag. The slice's entries of the completed candidates are thus
// one merge of their chains — an execution — and the joint test can never
// reject what the per-candidate test accepts. The product gate this
// replaces is kept in the tests as the reference that pins the argument.
func checkSlice(sl tagSlice, groups [][]int, gid, grank []int, id map[string]int) verdict {
	v := verdict{bad: -1}
	proj := make([][]int, len(groups)) // per group: ranks in temporal order
	for _, e := range sl.entries {
		if mid, ok := id[e.Msg.Name]; ok {
			proj[gid[mid]] = append(proj[gid[mid]], grank[mid])
		}
	}
	for gi, ranks := range proj {
		if len(ranks) == 0 {
			continue
		}
		// The projection must be strictly increasing (chain order) and,
		// when partial, contiguous: wraparound evicts a prefix and
		// end-of-capture cuts a suffix, so anything but an infix is an
		// interleaving artifact, not truncation.
		okOrder := true
		for i := 1; i < len(ranks); i++ {
			if ranks[i] != ranks[i-1]+1 {
				okOrder = false
				break
			}
		}
		if !okOrder {
			if v.bad < 0 {
				v.bad = gi
			}
			continue
		}
		if len(ranks) == len(groups[gi]) {
			v.complete = append(v.complete, gi)
		} else {
			v.partial = append(v.partial, gi)
			v.truncated = true
		}
	}
	return v
}

// Materialize builds the mined flows as DAGs. A lone flow is named base;
// several are base0, base1, ... in canonical order.
func (r *Result) Materialize(base string) ([]*flow.Flow, error) {
	out := make([]*flow.Flow, len(r.Flows))
	for i, m := range r.Flows {
		name := base
		if len(r.Flows) > 1 {
			name = fmt.Sprintf("%s%d", base, i)
		}
		f, err := m.Flow(name)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// Scenario materializes the mined flow set as a spec document with
// instances indexes 1..instances per flow — ready for pipeline.Session,
// cmd/tracesel, or the campaign's mined-vs-truth mode.
func (r *Result) Scenario(name string, instances, bufferWidth int) (*spec.Scenario, error) {
	if instances < 1 {
		return nil, fmt.Errorf("mine: instances %d must be positive", instances)
	}
	flows, err := r.Materialize(name)
	if err != nil {
		return nil, err
	}
	var insts []flow.Instance
	for _, f := range flows {
		for k := 1; k <= instances; k++ {
			insts = append(insts, flow.Instance{Flow: f, Index: k})
		}
	}
	return spec.FromFlows(name, flows, insts, bufferWidth), nil
}

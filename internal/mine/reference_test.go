package mine

import (
	"fmt"
	"sort"

	"tracescale/internal/tbuf"
)

// tagSlice is one transaction slice: the entries of one tag within one trace,
// in capture order. Same-index instances of different flows share a slice
// — that interleaving is exactly what the miner must see through.
type tagSlice struct {
	trace, tag int
	entries    []tbuf.Entry
}

// refSliceCorpus cuts each trace into slices, in the order their tags
// first appear.
func refSliceCorpus(traces [][]tbuf.Entry) []tagSlice {
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

// refCorpus is the map-keyed miner Corpus replaced, kept as the reference
// that TestCorpusMatchesReference and FuzzCorpus hold it equal to: the
// same Result, or the same error text, for every corpus and Options.
func refCorpus(traces [][]tbuf.Entry, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	slices := refSliceCorpus(traces)
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
		verdicts := refRunOracle(slices, groups, id)
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

// refRunOracle checks every slice against the candidate flow set.
func refRunOracle(slices []tagSlice, groups [][]int, id map[string]int) []verdict {
	gid := make([]int, len(id))   // name id -> group
	grank := make([]int, len(id)) // name id -> rank within group
	for gi, g := range groups {
		for r, mid := range g {
			gid[mid], grank[mid] = gi, r
		}
	}
	verdicts := make([]verdict, len(slices))
	for i, sl := range slices {
		verdicts[i] = refCheckSlice(sl, groups, gid, grank, id)
	}
	return verdicts
}

// refCheckSlice classifies each candidate's projection in one slice —
// complete, truncation-shaped fragment, absent, or inconsistent — and so
// decides whether the candidate set explains the slice.
func refCheckSlice(sl tagSlice, groups [][]int, gid, grank []int, id map[string]int) verdict {
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

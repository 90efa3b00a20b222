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
	// Written so that NaN, which fails every comparison, is rejected too.
	if !(o.MinConfidence > 0.5 && o.MinConfidence <= 1) {
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

// corpus is a trace corpus on dense name ids, numbered in first-seen
// order. Its transaction slices — the entries of one tag within one
// trace, in capture order — lie back to back in ids: slice k is
// ids[off[k]:off[k+1]], the entries of tag tag[k] in trace trace[k].
// Same-index instances of different flows share a slice — that
// interleaving is exactly what the miner must see through.
type corpus struct {
	names        []string
	count, width []int // per name: entries, widest Bits
	ids, off     []int32
	trace, tag   []int
}

// slice returns slice k's name ids.
func (c *corpus) slice(k int) []int32 { return c.ids[c.off[k]:c.off[k+1]] }

// sliceCorpus interns the corpus's names and cuts each trace into slices,
// in the order their tags first appear.
func sliceCorpus(traces [][]tbuf.Entry) *corpus {
	type entry struct{ slice, name int32 }
	c := &corpus{}
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	entries := make([]entry, 0, total)
	var size []int32 // per slice: entries
	nameID := map[string]int32{}
	at := map[int]int32{} // tag -> slice, within one trace
	for ti, tr := range traces {
		clear(at)
		for _, e := range tr {
			k, ok := at[e.Msg.Index]
			if !ok {
				k = int32(len(size))
				at[e.Msg.Index] = k
				size = append(size, 0)
				c.trace = append(c.trace, ti)
				c.tag = append(c.tag, e.Msg.Index)
			}
			size[k]++
			id, ok := nameID[e.Msg.Name]
			if !ok {
				id = int32(len(c.names))
				nameID[e.Msg.Name] = id
				c.names = append(c.names, e.Msg.Name)
				c.count = append(c.count, 0)
				c.width = append(c.width, 0)
			}
			c.count[id]++
			c.width[id] = max(c.width[id], e.Bits)
			entries = append(entries, entry{k, id})
		}
	}
	// A counting sort by slice that keeps capture order within each; size
	// becomes each slice's write cursor.
	c.off = make([]int32, len(size)+1)
	for k, n := range size {
		c.off[k+1] = c.off[k] + n
		size[k] = c.off[k]
	}
	c.ids = make([]int32, total)
	for _, e := range entries {
		c.ids[size[e.slice]] = e.name
		size[e.slice]++
	}
	return c
}

// keep rewrites every slice in place to the ids that remap sends to a
// non-negative id, renumbered, dropping the rest.
func (c *corpus) keep(remap []int32) {
	w := int32(0)
	for k := 0; k+1 < len(c.off); k++ {
		from, to := c.off[k], c.off[k+1]
		c.off[k] = w
		for _, id := range c.ids[from:to] {
			if r := remap[id]; r >= 0 {
				c.ids[w] = r
				w++
			}
		}
	}
	c.off[len(c.off)-1] = w
	c.ids = c.ids[:w]
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
// closed form by one pass over each slice (see oracle.check); the cost is
// linear in corpus entries per acceptance round. When a slice rejects a
// candidate flow, the weakest member is ejected into its own flow and
// acceptance reruns; Splits records how often.
//
// Two censored classes are excluded and reported rather than guessed at:
// names occurring more than once per slice (shared across flows —
// unattributable) and names below MinSupport. An entry with an empty
// message name is malformed and rejects the corpus.
//
// Every pass runs on dense ids: names are interned once, the slices are
// runs of one flat id array, and the pair statistics are flat n×n arrays
// over the frequent names.
func Corpus(traces [][]tbuf.Entry, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	c := sliceCorpus(traces)
	slices := len(c.trace)
	if slices == 0 {
		return nil, fmt.Errorf("mine: empty corpus")
	}

	// Per-name support and the shared censor: last[id] is 1 + the slice
	// that last counted the name, so a repeat within a slice shows.
	support := make([]int, len(c.names))
	last := make([]int32, len(c.names))
	shared := make([]bool, len(c.names))
	for k := 0; k < slices; k++ {
		for _, id := range c.slice(k) {
			if c.names[id] == "" {
				return nil, fmt.Errorf("mine: slice (trace %d, tag %d): message with empty name", c.trace[k], c.tag[k])
			}
			if last[id] == int32(k+1) {
				shared[id] = true
				continue
			}
			last[id] = int32(k + 1)
			support[id]++
		}
	}
	res := &Result{Traces: len(traces), Slices: slices}
	var frequent []int32 // name ids
	for id, name := range c.names {
		switch {
		case shared[id]:
			res.Shared = append(res.Shared, name)
		case support[id] < opt.MinSupport:
			res.LowSupport = append(res.LowSupport, name)
		default:
			frequent = append(frequent, int32(id))
		}
	}
	sort.Strings(res.Shared)
	sort.Strings(res.LowSupport)
	sort.Slice(frequent, func(a, b int) bool { return c.names[frequent[a]] < c.names[frequent[b]] })
	if len(frequent) == 0 {
		return nil, fmt.Errorf("mine: no message occurs in %d or more slices (%d shared, %d below support)",
			opt.MinSupport, len(res.Shared), len(res.LowSupport))
	}

	// From here on an id is a frequent name's rank in name order, and the
	// slices hold only frequent names.
	n := len(frequent)
	remap := make([]int32, len(c.names)) // name id -> frequent id, -1 if censored
	for id := range remap {
		remap[id] = -1
	}
	for f, id := range frequent {
		remap[id] = int32(f)
	}
	c.keep(remap)

	// Pair order statistics: before[i*n+j] = slices where i preceded j.
	// Frequent names occur at most once per slice, so "preceded" is
	// unambiguous.
	before := make([]int32, n*n)
	for k := 0; k < slices; k++ {
		present := c.slice(k)
		for a, i := range present {
			row := before[int(i)*n:]
			for _, j := range present[a+1:] {
				row[j]++
			}
		}
	}
	// dir[i*n+j] = +1 when i invariantly precedes j, -1 when it follows,
	// 0 when the pair is incomparable (cross-flow, or under-supported).
	dir := make([]int8, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ij, ji := int(before[i*n+j]), int(before[j*n+i])
			cooc := ij + ji
			if cooc < opt.MinSupport {
				continue
			}
			switch {
			case float64(ij) >= opt.MinConfidence*float64(cooc):
				dir[i*n+j], dir[j*n+i] = 1, -1
			case float64(ji) >= opt.MinConfidence*float64(cooc):
				dir[i*n+j], dir[j*n+i] = -1, 1
			}
		}
	}

	// Grow flows greedily: in name order, each message joins the first
	// candidate it is order-comparable with in full.
	var groups [][]int
	for i := 0; i < n; i++ {
		placed := false
		for gi, g := range groups {
			ok := true
			for _, m := range g {
				if dir[m*n+i] == 0 {
					ok = false
					break
				}
			}
			if ok {
				groups[gi] = append(g, i)
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
	// member — ids are in name order — is ejected into its own flow
	// (appended, so the loop orders it too).
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
			byRank := make([]int, len(g))
			for i := range byRank {
				byRank[i] = -1
			}
			collision := -1
			for _, m := range g {
				r := 0
				for _, o := range g {
					if dir[o*n+m] == 1 {
						r++
					}
				}
				if other := byRank[r]; other >= 0 {
					collision = max(m, other)
					break
				}
				byRank[r] = m
			}
			if collision < 0 {
				groups[gi] = byRank
				break
			}
			groups[gi] = eject(g, collision)
			groups = append(groups, []int{collision})
			res.Splits++
		}
	}

	// Acceptance against trace consistency, with eject-and-retry repair.
	for {
		o := newOracle(groups, n)
		bad := -1
		for k := 0; k < slices && bad < 0; k++ {
			bad = o.check(c.slice(k))
		}
		if bad < 0 {
			res.Truncated = o.truncated
			for gi, g := range groups {
				m := &Mined{Order: make([]Observation, len(g)), Tags: o.complete[gi], Skipped: o.partial[gi]}
				for r, f := range g {
					id := frequent[f]
					// Widths are clamped to 1 bit: flow validation rejects
					// zero-width messages and hand-fed entries may omit Bits.
					m.Order[r] = Observation{Name: c.names[id], Width: max(c.width[id], 1), Count: c.count[id]}
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
			return nil, fmt.Errorf("mine: message %s cannot be explained as a linear flow by the corpus", c.names[frequent[g[0]]])
		}
		// Eject the member with the least co-occurrence evidence binding
		// it to the rest (ties: lexicographically last), preserving order.
		out, outCooc := -1, 0
		for _, m := range g {
			cooc := 0
			for _, o := range g {
				if o != m {
					cooc += int(before[m*n+o]) + int(before[o*n+m])
				}
			}
			if out < 0 || cooc < outCooc || (cooc == outCooc && m > out) {
				out, outCooc = m, cooc
			}
		}
		groups[bad] = eject(g, out)
		groups = append(groups, []int{out})
		res.Splits++
	}
}

// oracle decides, slice by slice, whether a candidate flow set explains
// the corpus, and tallies each candidate's complete and fragmentary
// slices. Its per-candidate state is stamped with the check that wrote it,
// so no slice pays to reset it.
type oracle struct {
	groups     [][]int
	gid, grank []int32 // per frequent id: its candidate, its rank there
	stamp      []int   // per candidate: the check that last saw it
	next, seen []int32 // per candidate: rank expected next (-1: rejected), entries seen
	touched    []int32 // candidates the current slice holds, first-seen order
	checks     int
	complete   []int // per candidate: explained slices holding its whole chain
	partial    []int // per candidate: explained slices holding a fragment
	truncated  int   // explained slices holding some fragment
}

func newOracle(groups [][]int, n int) *oracle {
	o := &oracle{
		groups:   groups,
		gid:      make([]int32, n),
		grank:    make([]int32, n),
		stamp:    make([]int, len(groups)),
		next:     make([]int32, len(groups)),
		seen:     make([]int32, len(groups)),
		complete: make([]int, len(groups)),
		partial:  make([]int, len(groups)),
	}
	for gi, g := range groups {
		for r, m := range g {
			o.gid[m], o.grank[m] = int32(gi), int32(r)
		}
	}
	return o
}

// check decides one slice, given as frequent ids in capture order. It
// returns the lowest-index candidate the slice rejects, or -1 when the
// slice is explained; only an explained slice is tallied.
//
// A candidate's projection must be strictly increasing in rank (chain
// order) and, when partial, contiguous: wraparound evicts a prefix and
// end-of-capture cuts a suffix, so anything but an infix is an
// interleaving artifact, not truncation.
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
func (o *oracle) check(ids []int32) int {
	o.checks++
	o.touched = o.touched[:0]
	for _, m := range ids {
		g, r := o.gid[m], o.grank[m]
		switch {
		case o.stamp[g] != o.checks:
			o.stamp[g] = o.checks
			o.touched = append(o.touched, g)
			o.next[g], o.seen[g] = r+1, 1
		case o.next[g] == r:
			o.next[g]++
			o.seen[g]++
		default:
			o.next[g] = -1
		}
	}
	bad := -1
	for _, g := range o.touched {
		if o.next[g] < 0 && (bad < 0 || int(g) < bad) {
			bad = int(g)
		}
	}
	if bad >= 0 {
		return bad
	}
	fragment := false
	for _, g := range o.touched {
		if int(o.seen[g]) == len(o.groups[g]) {
			o.complete[g]++
		} else {
			o.partial[g]++
			fragment = true
		}
	}
	if fragment {
		o.truncated++
	}
	return -1
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
	if bufferWidth < 1 {
		return nil, fmt.Errorf("mine: bufferWidth %d must be positive", bufferWidth)
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

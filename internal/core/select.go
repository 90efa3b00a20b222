package core

import (
	"context"
	"fmt"
	"math/bits"
	"time"
)

// Config parameterizes Select.
type Config struct {
	// BufferWidth is the trace buffer width in bits (the paper uses 32).
	BufferWidth int
	// Method is the Step-2 strategy (default Exhaustive).
	Method Method
	// DisablePacking skips Step 3 (the paper's "WoP" configuration).
	DisablePacking bool
	// MaxCandidates bounds the Step-2 search (default 1<<22): exhaustive
	// enumeration fails rather than hang when the message universe is too
	// large for it — use Knapsack or BranchBound there — and BranchBound
	// caps its explored search nodes at the same bound.
	MaxCandidates int
	// KeepCandidates retains every feasible candidate with its gain and
	// coverage in Result.Candidates (needed for the Figure-5 correlation
	// study). Only the Exhaustive method supports it; Select rejects the
	// combination for every other method.
	KeepCandidates bool
	// Workers must be 0 or 1: every strategy searches serially on the
	// caller's goroutine, and Select rejects Workers > 1. Both values
	// select the same Result and share one memo slot.
	Workers int
}

// Candidate is one width-feasible message combination with its scores.
type Candidate struct {
	Messages []string // message names in universe order
	Width    int
	Gain     float64 // nats
	Coverage float64
}

// PackedGroup is a subgroup added to the trace buffer by Step 3.
type PackedGroup struct {
	Message string // parent message name
	Group   string
	Width   int
}

// Result is the outcome of the full selection pipeline.
type Result struct {
	// Selected is the Step-2 message combination.
	Selected []string
	// Packed lists the Step-3 subgroups, in packing order.
	Packed []PackedGroup
	// Width is the total traced bits (selection + packing).
	Width int
	// Utilization is Width / BufferWidth.
	Utilization float64
	// Gain is the mutual information gain of the final traced set, where a
	// packed subgroup contributes its parent message's occurrences.
	Gain float64
	// Coverage is the flow-specification coverage of the final traced set.
	Coverage float64
	// SelectedGain and SelectedCoverage score the Step-2 combination alone
	// (the "without packing" row of Table 3).
	SelectedGain     float64
	SelectedCoverage float64
	// SelectedWidth is the Step-2 combination's width in bits.
	SelectedWidth int
	// Candidates holds every Step-1 candidate when Config.KeepCandidates
	// is set.
	Candidates []Candidate
}

// TracedNames returns the names of all observable messages: the selected
// combination plus the parent messages of packed subgroups (observing a
// subgroup reveals the parent message's occurrences).
func (r *Result) TracedNames() []string {
	seen := make(map[string]bool, len(r.Selected)+len(r.Packed))
	var out []string
	for _, n := range r.Selected {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, g := range r.Packed {
		if !seen[g.Message] {
			seen[g.Message] = true
			out = append(out, g.Message)
		}
	}
	return out
}

const defaultMaxCandidates = 1 << 22

// MaxBufferWidth is the widest trace buffer, in bits, that Select accepts.
// Message widths are caller input too, so clamping the Step-2 search to
// the universe's total trace width (stepWidth) alone would not bound the
// width-indexed tables; this limit does. The paper's buffers are 32 bits
// wide.
const MaxBufferWidth = 1 << 16

// scoreEps is the tolerance of every score comparison: gains (and
// coverages) closer than this are ties, broken by the secondary objective
// and then by enumeration order.
const scoreEps = 1e-12

// Select runs the full three-step selection pipeline on the evaluator's
// interleaved flow. When the evaluator carries an observability registry
// (Analyze's reg, or the product's for NewEvaluator), Select records
// core.select.* and core.pack.* metrics into it; instrumentation is
// entirely skipped for unobserved evaluators so the hot path stays at the
// uninstrumented baseline.
func Select(e *Evaluator, cfg Config) (*Result, error) {
	return SelectContext(context.Background(), e, cfg)
}

// SelectContext is Select with cooperative cancellation. Selection runs
// on the caller's goroutine; when ctx is cancelled, the exhaustive and
// branch-and-bound searches abort at the next poll boundary (every
// cancelCheckMasks masks or search nodes) and SelectContext returns ctx's
// error. With an uncancelled context the result is byte-identical to
// Select — cancellation polling never touches the incumbent-best state,
// so it cannot perturb tie-breaks. Cancelled runs increment
// core.select.cancelled on observed evaluators.
//
// The Step-2 strategy is resolved from the Method registry; the Config is
// validated first (ValidateConfig), so an option the strategy cannot honor
// (KeepCandidates, Workers > 1) is an error rather than silently ignored.
// A BufferWidth above MaxBufferWidth is refused.
func SelectContext(ctx context.Context, e *Evaluator, cfg Config) (*Result, error) {
	if cfg.BufferWidth < 1 {
		return nil, fmt.Errorf("core: non-positive trace buffer width %d", cfg.BufferWidth)
	}
	if cfg.BufferWidth > MaxBufferWidth {
		return nil, fmt.Errorf("core: trace buffer width %d exceeds the %d-bit limit", cfg.BufferWidth, MaxBufferWidth)
	}
	if cfg.MaxCandidates < 0 {
		// A negative bound would wrap to ~2^64 at the uint64 enumeration
		// guard and let arbitrarily large mask spaces through; reject it.
		return nil, fmt.Errorf("core: negative MaxCandidates %d", cfg.MaxCandidates)
	}
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = defaultMaxCandidates
	}
	if err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	reg := e.obs
	var start time.Time
	if reg != nil {
		//lint:ignore clockrand registry-gated metrics timing; never reaches selection results
		start = time.Now()
	}

	step := cfg
	step.BufferWidth = e.stepWidth(cfg.BufferWidth)
	best, all, err := cfg.Method.strategy().Select(ctx, e, step)
	if err != nil {
		if reg != nil && ctx.Err() != nil {
			reg.Counter("core.select.cancelled").Inc()
		}
		return nil, err
	}

	res := &Result{
		Selected:         best.Messages,
		Width:            best.Width,
		SelectedWidth:    best.Width,
		Gain:             best.Gain,
		SelectedGain:     best.Gain,
		Coverage:         best.Coverage,
		SelectedCoverage: best.Coverage,
		Candidates:       all,
	}
	if !cfg.DisablePacking {
		pack(e, cfg.BufferWidth, res)
	}
	res.Utilization = float64(res.Width) / float64(cfg.BufferWidth)
	// Rescore gain and coverage over the full traced set (selected messages
	// plus packed parents).
	traced := res.TracedNames()
	if res.Gain, err = e.Gain(traced); err != nil {
		return nil, err
	}
	if res.Coverage, err = e.Coverage(traced); err != nil {
		return nil, err
	}
	if reg != nil {
		//lint:ignore clockrand registry-gated metrics timing; never reaches selection results
		wall := time.Since(start)
		reg.Counter("core.select.runs").Inc()
		reg.Add("core.select.wall_ns", wall.Nanoseconds())
		reg.Histogram("core.select.wall_us", selectWallBounds).Observe(wall.Microseconds())
		reg.Add("core.pack.packed", int64(len(res.Packed)))
	}
	return res, nil
}

// stepWidth is the budget the Step-2 strategy searches under: the
// requested width, clamped to the universe's total trace width. Every
// message fits at that sum, so every strategy selects the same set at any
// wider budget, while the width-indexed tables (knapsack's DP, the
// feasible-mask count) stay sized by the scenario rather than by the
// request. Step 3 and Utilization keep the requested width.
func (e *Evaluator) stepWidth(budget int) int {
	sum := 0
	for _, w := range e.widthOf {
		if w >= budget-sum { // overflow-safe sum+w >= budget
			return budget
		}
		sum += w
	}
	return sum
}

// selectWallBounds buckets core.select.wall_us: selection runs span ~µs
// (memoized toy scenarios) to ~seconds (wide synthetic mask spaces).
var selectWallBounds = []int64{10, 100, 1_000, 10_000, 100_000, 1_000_000}

// score is a candidate's objective: information gain first, coverage to
// break gain ties.
type score struct {
	gain     float64
	coverage float64
}

// beats reports whether a candidate scoring s should replace one scoring
// o: strictly higher gain, or equal gain with strictly higher coverage.
// Equal scores keep the incumbent, so enumeration order (message
// declaration order) breaks ties deterministically — this reproduces the
// paper's choice of {ReqE, GntE} among the three gain-tied pairs of the
// toy example.
func (s score) beats(o score) bool {
	if s.gain > o.gain+scoreEps {
		return true
	}
	if s.gain < o.gain-scoreEps {
		return false
	}
	return s.coverage > o.coverage+scoreEps
}

// scored is a candidate combination identified by its enumeration mask,
// carrying only the fields the score tie-break needs. The full Candidate
// (message names) is materialized once, for the winner, or for every
// feasible mask when KeepCandidates asks for them.
type scored struct {
	mask  uint64
	width int
	score
}

// cancelCheckMasks is how many masks (or search nodes) a scan processes
// between context polls: coarse enough that the poll never shows up in
// profiles, fine enough that a cancelled scan aborts within a fraction of
// a millisecond.
const cancelCheckMasks = 1 << 13

// errNothingFits is the shared infeasibility error: every strategy must
// report an empty selection identically.
func errNothingFits(budget int) error {
	return fmt.Errorf("core: no message fits in a %d-bit trace buffer", budget)
}

// fill takes each message of order, in turn, that still fits the budget:
// the buffer fill that greedy and every ordered baseline share.
func (e *Evaluator) fill(order []int, budget int) (Candidate, error) {
	chosen := newBitset(len(e.universe))
	left := budget
	any := false
	for _, i := range order {
		if w := e.widthOf[i]; w <= left {
			chosen.set(i)
			left -= w
			any = true
		}
	}
	if !any {
		return Candidate{}, errNothingFits(budget)
	}
	return e.candidateFromSet(chosen), nil
}

// universeOrder returns the universe indices in ascending order, for an
// ordered selector to sort or shuffle.
func (e *Evaluator) universeOrder() []int {
	order := make([]int, len(e.universe))
	for i := range order {
		order[i] = i
	}
	return order
}

// candidate materializes the Candidate for mask (bit i = universe[i]),
// message names in ascending universe order.
func (e *Evaluator) candidate(mask bitset, width int, s score) Candidate {
	c := Candidate{Width: width, Gain: s.gain, Coverage: s.coverage}
	for w, word := range mask {
		for m := word; m != 0; m &= m - 1 {
			c.Messages = append(c.Messages, e.universe[w*64+bits.TrailingZeros64(m)].Name)
		}
	}
	return c
}

// candidateFromSet scores the messages of chosen, summing gains in
// ascending universe order, and materializes their Candidate.
func (e *Evaluator) candidateFromSet(chosen bitset) Candidate {
	width, gain := 0, 0.0
	vis := e.newCover()
	for w, word := range chosen {
		for m := word; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			width += e.widthOf[i]
			gain += e.gainOf[i]
			vis.or(e.visibleOf[i])
		}
	}
	return e.candidate(chosen, width, score{gain: gain, coverage: e.coverage(vis)})
}

// pack is Step 3: fill the leftover buffer with message subgroups,
// preferring the group whose parent message adds the most gain, then
// (ties) the widest group so the buffer fills fastest. Groups whose parent
// is already observable — selected in Step 2, or reached by an earlier
// packed group — add no gain but still improve utilization, so they remain
// candidates with zero marginal gain and are packed last, once no
// gain-carrying granule fits.
func pack(e *Evaluator, budget int, res *Result) {
	observable := newBitset(len(e.universe))
	for _, n := range res.Selected {
		observable.set(e.byName[n])
	}
	type granule struct {
		msgIdx int
		g      PackedGroup
	}
	var granules []granule
	for i, m := range e.universe {
		for _, g := range m.Groups {
			granules = append(granules, granule{
				msgIdx: i,
				g:      PackedGroup{Message: m.Name, Group: g.Name, Width: g.Width},
			})
		}
	}
	e.obs.Counter("core.pack.granules_considered").Add(int64(len(granules)))
	left := budget - res.Width
	for left > 0 && len(granules) > 0 {
		bestAt := -1
		bestGain, bestWidth := 0.0, 0
		for k, gr := range granules {
			if gr.g.Width > left {
				continue
			}
			marginal := 0.0
			if !observable.has(gr.msgIdx) {
				marginal = e.gainOf[gr.msgIdx]
			}
			if bestAt < 0 || marginal > bestGain+1e-15 ||
				(marginal > bestGain-1e-15 && gr.g.Width > bestWidth) {
				bestAt, bestGain, bestWidth = k, marginal, gr.g.Width
			}
		}
		if bestAt < 0 {
			break // nothing fits
		}
		chosen := granules[bestAt]
		granules = append(granules[:bestAt], granules[bestAt+1:]...)
		res.Packed = append(res.Packed, chosen.g)
		res.Width += chosen.g.Width
		left -= chosen.g.Width
		observable.set(chosen.msgIdx)
	}
}

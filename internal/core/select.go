package core

import (
	"context"
	"fmt"
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
	// study). Only the Exhaustive method supports it (see Capabilities);
	// Select rejects the combination for every other method.
	KeepCandidates bool
	// Workers bounds the goroutines the exhaustive scan (the one sharding
	// strategy — see Capabilities) spreads its mask space across. Zero
	// means GOMAXPROCS; one forces the serial scan. Every worker count
	// selects a byte-identical Result: shards are merged in ascending order
	// with the same tie-breaks the serial scan applies, so parallelism
	// never changes which candidate wins. Every other strategy, branch-bound
	// included, searches serially and rejects Workers > 1.
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

// SelectContext is Select with cooperative cancellation: when ctx is
// cancelled, the sharded strategies abort their scans at the next poll
// boundary (every cancelCheckMasks masks or search nodes) and SelectContext
// returns ctx's error. With an uncancelled context the result is
// byte-identical to Select — cancellation polling never touches the
// incumbent-best state, so it cannot perturb tie-breaks. Cancelled runs
// increment core.select.cancelled on observed evaluators.
//
// The Step-2 strategy is resolved from the Method registry; the Config is
// validated against the strategy's Capabilities first, so an option the
// strategy cannot honor (KeepCandidates, Workers > 1) is an error rather
// than silently ignored.
func SelectContext(ctx context.Context, e *Evaluator, cfg Config) (*Result, error) {
	if cfg.BufferWidth < 1 {
		return nil, fmt.Errorf("core: non-positive trace buffer width %d", cfg.BufferWidth)
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

	best, all, err := cfg.Method.strategy().Select(ctx, e, cfg)
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
		reg.Trace().Emit("core", "select", map[string]int64{
			"method":   int64(cfg.Method),
			"width":    int64(cfg.BufferWidth),
			"selected": int64(len(res.Selected)),
			"packed":   int64(len(res.Packed)),
			"bits":     int64(res.Width),
		})
	}
	return res, nil
}

// selectWallBounds buckets core.select.wall_us: selection runs span ~µs
// (memoized toy scenarios) to ~seconds (wide synthetic mask spaces).
var selectWallBounds = []int64{10, 100, 1_000, 10_000, 100_000, 1_000_000}

// better reports whether candidate a should replace b: strictly higher
// gain, or equal gain with strictly higher coverage. Equal-score
// candidates keep the incumbent, so enumeration order (message declaration
// order) breaks ties deterministically — this reproduces the paper's
// choice of {ReqE, GntE} among the three gain-tied pairs of the toy
// example.
func better(a, b Candidate) bool {
	if a.Gain > b.Gain+scoreEps {
		return true
	}
	if a.Gain < b.Gain-scoreEps {
		return false
	}
	return a.Coverage > b.Coverage+scoreEps
}

// scored is a candidate combination identified by its enumeration mask,
// carrying only the fields the better/tie-break predicates need. The full
// Candidate (message names) is materialized once, for the winner, or for
// every feasible mask when KeepCandidates asks for them.
type scored struct {
	mask     uint64
	width    int
	gain     float64
	coverage float64
}

// betterScored is the better predicate on mask-identified candidates.
func betterScored(a, b scored) bool {
	if a.gain > b.gain+scoreEps {
		return true
	}
	if a.gain < b.gain-scoreEps {
		return false
	}
	return a.coverage > b.coverage+scoreEps
}

// tieScored reports whether a and b are gain- and coverage-tied within the
// predicate's tolerance (neither is better than the other).
func tieScored(a, b scored) bool {
	return !betterScored(a, b) && !betterScored(b, a)
}

// cancelCheckMasks is how many masks (or search nodes) a scan processes
// between context polls: coarse enough that the poll never shows up in
// profiles, fine enough that a cancelled shard aborts within a fraction of
// a millisecond.
const cancelCheckMasks = 1 << 13

// errNothingFits is the shared infeasibility error: every strategy must
// report an empty selection identically.
func errNothingFits(budget int) error {
	return fmt.Errorf("core: no message fits in a %d-bit trace buffer", budget)
}

func (e *Evaluator) candidateFromSet(chosen []bool) Candidate {
	var c Candidate
	vis := e.newCover()
	for i, on := range chosen {
		if !on {
			continue
		}
		c.Messages = append(c.Messages, e.universe[i].Name)
		c.Width += e.widthOf[i]
		c.Gain += e.gainOf[i]
		vis.or(e.visibleOf[i])
	}
	c.Coverage = e.coverage(vis)
	return c
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

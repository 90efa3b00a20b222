// Package tracescale selects trace messages for post-silicon use-case
// validation, implementing the methodology of Pal et al., "Application
// Level Hardware Tracing for Scaling Post-Silicon Debug" (DAC 2018).
//
// Given the transaction-level flows a usage scenario activates —
// message-labeled DAGs over the SoC's IPs — and a trace-buffer width
// budget, tracescale computes the interleaved flow of the concurrently
// executing (legally indexed) flow instances, scores candidate message
// combinations by mutual information gain over that interleaving, selects
// the best combination that fits the buffer, and packs leftover bits with
// subgroups of wider messages. The selected messages maximize debug value:
// flow-specification coverage correlates monotonically with the gain
// metric, and observed traces localize failing executions to a small
// fraction of the interleaving's paths.
//
// The basic pipeline:
//
//	b := tracescale.NewFlow("cachecoherence")
//	b.States("Init", "Wait", "GntW", "Done")
//	b.Init("Init")
//	b.Stop("Done")
//	b.Atomic("GntW")
//	b.Message(tracescale.Message{Name: "ReqE", Width: 1, Src: "1", Dst: "Dir"})
//	... // more messages and edges
//	f, err := b.Build()
//
//	session, err := tracescale.NewSession([]tracescale.Instance{
//		{Flow: f, Index: 1},
//		{Flow: f, Index: 2},
//	})
//	result, err := session.Select(tracescale.Config{BufferWidth: 32})
//
// result.Selected holds the message combination to trace, result.Packed
// the subgroups added by buffer packing, and result.Gain / result.Coverage
// its scores. A Session owns the scenario's gain analysis — computed in
// closed form from the flows, without building the interleaved flow,
// which Session.Product builds on first use — and memoizes selection
// Results per Config; sessions are themselves cached by a content
// fingerprint of the instance listing, so repeated analyses of the same
// scenario (width sweeps, several tables touching one workload) pay for
// the analysis once. The step-by-step
// Interleave / NewEvaluator / Select functions remain for callers that
// want explicit control. See the examples directory for complete
// programs, and cmd/paperbench for the harness that regenerates every
// table and figure of the paper's evaluation on the bundled OpenSPARC T2
// and USB models.
package tracescale

import (
	"context"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/pipeline"
)

// Message is a protocol message exchanged between two IPs: Width bits of
// content carried from Src to Dst, optionally with named subgroups that
// trace-buffer packing may capture separately.
type Message = flow.Message

// Group is a named bit-field of a wider message.
type Group = flow.Group

// Flow is an immutable transaction flow: a DAG of flow states whose
// transitions are labeled with messages (Definition 1 of the paper).
type Flow = flow.Flow

// FlowBuilder constructs a Flow.
type FlowBuilder = flow.Builder

// Execution is a root-to-stop path of a flow (Definition 2).
type Execution = flow.Execution

// Instance is an indexed flow ⟨F, k⟩ (Definition 3): one of possibly many
// concurrent invocations of the same flow, distinguished by tag k.
type Instance = flow.Instance

// IndexedMsg is a message tagged with its instance index.
type IndexedMsg = flow.IndexedMsg

// Product is the interleaved flow of a set of legally indexed instances
// (Definition 5): the synchronized product automaton in which a component
// may step only while no other component occupies an atomic state.
type Product = interleave.Product

// MatchMode selects how observed traces constrain candidate executions
// during localization.
type MatchMode = interleave.MatchMode

// Localization match modes.
const (
	// Prefix treats the observation as the trace of a possibly incomplete
	// execution.
	Prefix = interleave.Prefix
	// Exact requires the full projection to equal the observation.
	Exact = interleave.Exact
)

// Evaluator scores message combinations over an interleaved flow.
type Evaluator = core.Evaluator

// Config parameterizes Select.
type Config = core.Config

// Method is the Step-2 search strategy.
type Method = core.Method

// Selection methods.
const (
	// Exhaustive enumerates every width-feasible combination (the paper's
	// Steps 1-2).
	Exhaustive = core.Exhaustive
	// Knapsack finds a maximum-gain combination in polynomial time (the
	// gain metric is additive across messages); its coverage tie-break is
	// a heuristic, so on gain ties its set can differ from Exhaustive's.
	Knapsack = core.Knapsack
	// Greedy picks by gain density; fastest, near-optimal.
	Greedy = core.Greedy
	// MaxCoverage greedily maximizes flow-spec coverage directly (an
	// ablation baseline for the gain metric).
	MaxCoverage = core.MaxCoverage
	// BranchBound is the exact lattice search: byte-identical to Exhaustive
	// wherever Exhaustive is feasible, and scales far past it.
	BranchBound = core.BranchBound
)

// ParseMethod maps a method name ("exhaustive", "knapsack", "greedy",
// "max-coverage", "branch-bound", "reconstruct"; "" = Exhaustive) to its
// Method.
func ParseMethod(name string) (Method, error) { return core.ParseMethod(name) }

// MethodNames lists every registered selection method name.
func MethodNames() []string { return core.MethodNames() }

// Candidate is one scored message combination.
type Candidate = core.Candidate

// PackedGroup is a subgroup added by Step-3 packing.
type PackedGroup = core.PackedGroup

// Result is the outcome of the selection pipeline.
type Result = core.Result

// Session owns one scenario's Evaluator (and, once asked for, its
// Product) and memoizes selection Results per Config. Results returned
// from a Session are shared and must be treated as read-only.
type Session = pipeline.Session

// NewFlow returns a builder for a flow with the given name.
func NewFlow(name string) *FlowBuilder { return flow.NewBuilder(name) }

// LegallyIndexed reports whether the instances are pairwise legally
// indexed (Definition 4).
func LegallyIndexed(instances []Instance) bool { return flow.LegallyIndexed(instances) }

// Interleave builds the interleaved flow of the given instances.
func Interleave(instances []Instance) (*Product, error) { return interleave.New(instances) }

// NewEvaluator analyzes an interleaved flow for message-combination
// scoring.
func NewEvaluator(p *Product) (*Evaluator, error) { return core.NewEvaluator(p) }

// Select runs the full three-step selection pipeline: enumerate feasible
// message combinations, pick the one with maximal mutual information gain,
// and pack leftover buffer bits with message subgroups.
func Select(e *Evaluator, cfg Config) (*Result, error) { return core.Select(e, cfg) }

// SelectContext is Select with cancellation: the exhaustive and
// branch-and-bound searches poll ctx and abort early when it is cancelled.
// With an uncancelled context the Result is byte-identical to Select's.
func SelectContext(ctx context.Context, e *Evaluator, cfg Config) (*Result, error) {
	return core.SelectContext(ctx, e, cfg)
}

// NewSession returns the Session for the given instance set, computing its
// evaluator on first use (the interleaved flow waits until
// Session.Product asks for it). Sessions are cached process-wide by a
// content fingerprint of the instance listing (flow structure plus
// indices, in order), so two callers that independently construct equal
// scenarios share one analysis.
func NewSession(instances []Instance) (*Session, error) { return pipeline.For(instances) }

// CacheCoherence returns the paper's running example flow (Figure 1a),
// useful as a starting fixture.
func CacheCoherence() *Flow { return flow.CacheCoherence() }

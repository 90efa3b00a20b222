package core

import (
	"context"
	"fmt"
	"strings"
)

// Method selects the Step-2 search strategy.
type Method int

const (
	// Exhaustive enumerates every width-feasible combination (the paper's
	// Step 1 + Step 2). Exponential in the number of messages; fine for
	// per-scenario message counts, and the reference the other methods are
	// validated against.
	Exhaustive Method = iota
	// Knapsack solves Step 2 exactly in O(messages × budget) by dynamic
	// programming, exploiting the additivity of the gain metric. This is
	// the scalable selector.
	Knapsack
	// Greedy adds messages in decreasing gain density (gain per bit),
	// skipping what no longer fits. Fastest, not always optimal: the
	// density heuristic for additive gains carries no worst-case knapsack
	// guarantee in general, but on this codebase's instances it stays
	// within 1/2 of the exact optimum — the documented approximation bound
	// pinned by TestGreedyVsExhaustiveDifferential — and is exact whenever
	// at most one message fits (e.g. a width-1 budget). Provided for the
	// scalability ablation; use Knapsack for exactness at scale.
	Greedy
	// MaxCoverage greedily maximizes flow-specification coverage directly
	// instead of information gain — the ablation behind §5.3: if gain is a
	// good selection metric, the max-gain combination should cover nearly
	// as much as the coverage-greedy one.
	MaxCoverage
	// BranchBound searches the message lattice depth-first in gain-density
	// order, bounding each partial selection's best completion by the
	// fractional-knapsack relaxation of the leftover budget and pruning
	// subtrees below the incumbent. Exact like Exhaustive — byte-identical
	// wherever Exhaustive is feasible — but it never materializes the 2^n
	// mask space, so it keeps selecting past Exhaustive's MaxCandidates
	// guard (MaxCandidates instead caps explored search nodes per worker).
	BranchBound
	// Reconstruct greedily minimizes expected reconstruction ambiguity
	// (reconstruct.PairCount / TotalPaths): each round adds the fitting
	// message whose traced set leaves a debugger the fewest executions
	// consistent with an average observed trace, breaking exact pair-count
	// ties by information gain and then universe order. The objective is
	// not additive — pair counts couple across messages — so selection
	// re-scores the whole set per candidate; the quadratic pair DP limits
	// it to products within reconstruct.MaxAmbiguityStates.
	Reconstruct
)

// Capabilities reports which Config options a Strategy honors. Select
// rejects a Config that asks for an option its strategy cannot honor
// instead of silently ignoring it.
type Capabilities struct {
	// KeepCandidates: the strategy can retain every feasible candidate in
	// Result.Candidates.
	KeepCandidates bool
	// Workers: the strategy shards its search across Config.Workers
	// goroutines (byte-identical results at every worker count).
	Workers bool
}

// Strategy is one Step-2 search algorithm. Implementations are stateless;
// all instance data lives in the Evaluator, all knobs in the Config (which
// SelectContext has already validated against the strategy's Capabilities
// and defaulted — BufferWidth ≥ 1, MaxCandidates > 0). Select returns the
// winning Candidate and, when the strategy supports KeepCandidates and the
// Config asks for it, every feasible candidate.
type Strategy interface {
	Name() string
	Capabilities() Capabilities
	Select(ctx context.Context, e *Evaluator, cfg Config) (best Candidate, all []Candidate, err error)
}

// registry maps each Method constant to its Strategy. Adding a strategy is
// one const above plus one entry here; String, ParseMethod, MethodNames,
// ValidateConfig, CLI flag help, and the serving layer all read the
// registry, so they cannot drift from each other.
var registry = [...]Strategy{
	Exhaustive:  exhaustiveStrategy{},
	Knapsack:    knapsackStrategy{},
	Greedy:      greedyStrategy{},
	MaxCoverage: maxCoverageStrategy{},
	BranchBound: branchBoundStrategy{},
	Reconstruct: reconstructStrategy{},
}

// strategy returns the registered Strategy, or nil for an out-of-range
// Method.
func (m Method) strategy() Strategy {
	if m >= 0 && int(m) < len(registry) {
		return registry[m]
	}
	return nil
}

// String returns the registered strategy name; unregistered values render
// as Method(n) so they stay diagnosable in error messages.
func (m Method) String() string {
	if s := m.strategy(); s != nil {
		return s.Name()
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Capabilities returns the registered strategy's capability report (the
// zero Capabilities for an unregistered Method).
func (m Method) Capabilities() Capabilities {
	if s := m.strategy(); s != nil {
		return s.Capabilities()
	}
	return Capabilities{}
}

// ParseMethod maps a method name (the String form) back to the Method —
// the inverse the CLI flags and the serving layer share. The empty string
// selects Exhaustive, the zero Config default. Parsing reads the registry,
// so ParseMethod(m.String()) == m for every registered Method.
func ParseMethod(name string) (Method, error) {
	if name == "" {
		return Exhaustive, nil
	}
	for i, s := range registry {
		if s.Name() == name {
			return Method(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q (have %s)", name, strings.Join(MethodNames(), ", "))
}

// Methods returns every registered Method in registry order.
func Methods() []Method {
	out := make([]Method, len(registry))
	for i := range registry {
		out[i] = Method(i)
	}
	return out
}

// MethodNames returns every registered strategy name in registry order —
// the vocabulary CLI flag help and error messages print.
func MethodNames() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name()
	}
	return out
}

// ValidateConfig rejects Config combinations no selection run could honor:
// an unregistered Method, or KeepCandidates/Workers > 1 against a strategy
// whose Capabilities do not include them. SelectContext validates every
// Config; the pipeline session layer validates before its memo lookup so an
// invalid combination can never be answered from cache (the memo key
// normalizes Workers away).
func ValidateConfig(cfg Config) error {
	s := cfg.Method.strategy()
	if s == nil {
		return fmt.Errorf("core: unknown method %v", cfg.Method)
	}
	caps := s.Capabilities()
	if cfg.KeepCandidates && !caps.KeepCandidates {
		return fmt.Errorf("core: method %s does not support KeepCandidates (supported by: %s)",
			s.Name(), strings.Join(methodNamesWhere(func(c Capabilities) bool { return c.KeepCandidates }), ", "))
	}
	if cfg.Workers > 1 && !caps.Workers {
		return fmt.Errorf("core: method %s does not support Workers > 1 (supported by: %s)",
			s.Name(), strings.Join(methodNamesWhere(func(c Capabilities) bool { return c.Workers }), ", "))
	}
	return nil
}

// methodNamesWhere lists the registered strategies whose Capabilities
// satisfy pred, for ValidateConfig's error messages.
func methodNamesWhere(pred func(Capabilities) bool) []string {
	var out []string
	for _, s := range registry {
		if pred(s.Capabilities()) {
			out = append(out, s.Name())
		}
	}
	return out
}

// Package analysis is tracescale's static-analysis suite: a dependency-free
// driver (go list + go/parser + go/types, no x/tools) hosting repo-specific
// analyzers that machine-check the invariants the rest of the stack merely
// promises in comments — the obs nil-safe contract, the parallel ≡ serial
// determinism of selection, the reproducibility of simulation runs, and the
// threading of observability registries. The paper's results are only
// evidence if runs are bit-reproducible; these analyzers turn that
// discipline from convention into a compile-adjacent gate (cmd/tracelint).
//
// # Analyzers
//
//   - nilsafe: every exported pointer-receiver method in internal/obs that
//     touches a receiver field must begin with a nil-receiver guard (the
//     obs package's documented contract).
//   - detrange: in internal/{core,interleave,flow}, a range over a map must
//     not let iteration order reach persistent state — appends to slices
//     declared outside the loop (unless sorted afterwards) or float
//     accumulation, both of which would break the parallel ≡ serial and
//     run-to-run bit-reproducibility invariants.
//   - clockrand: internal/{core,interleave,flow,soc,info} must not read the
//     wall clock (time.Now/Since/Until) or the global math/rand source;
//     randomness is injected as a seeded *rand.Rand and the only sanctioned
//     wall-clock use is the registry-gated metrics-timing allowlist,
//     annotated with //lint:ignore clockrand.
//   - obsdrop: a function that receives a *obs.Registry parameter must
//     thread it to registry-accepting callees, never pass a literal nil —
//     a nil here silently blackholes every metric downstream.
//
// Four interprocedural analyzers run over the merged fact sets of the whole
// package graph (the two-phase facts engine — see facts.go, callgraph.go):
//
//   - detflow: nondeterminism taint must not reach core.Result
//     construction or encoding/json marshalling in
//     internal/{core,interleave,serve,pipeline} without an intervening
//     sort/canonicalization — detrange generalized across call boundaries.
//   - ctxflow: a context-taking function must thread its ctx — a literal
//     context.Background()/TODO() handed to a ctx-accepting callee is a
//     finding, as is an oversized loop that never consults the context.
//   - trustbound: every json.NewDecoder reachable from an HTTP handler in
//     internal/serve must DisallowUnknownFields and be validation-checked.
//   - obsname: obs metric name literals must match pkg.subsystem.metric
//     and be unique to one package and one instrument kind.
//
// # Suppressions
//
// A diagnostic is suppressed by a comment on the same line or the line
// directly above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a reasonless ignore is itself reported. The
// suppression applies to exactly one analyzer at one site — there is no
// file- or package-level opt-out.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzed package presented to an analyzer: its parsed files
// and full type information.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string

	diags *[]Diagnostic
	cur   string // name of the analyzer currently running
}

// Reportf records a finding for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportPosf(p.Fset.Position(pos), format, args...)
}

// ReportPosf is Reportf for already-resolved positions — the form fact
// sites carry.
func (p *Pass) ReportPosf(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.cur,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	// Name is the analyzer's identifier: the [name] tag in diagnostics and
	// the key //lint:ignore comments suppress by.
	Name string
	// Doc is a one-line description.
	Doc string
	// Scope restricts the analyzer to packages whose import path contains
	// one of these elements as a full path segment ("obs" matches
	// tracescale/internal/obs but not tracescale/internal/observe). An
	// empty scope means every package.
	Scope []string
	// Run inspects one package, reporting findings through pass.Reportf.
	// Local analyzers set Run or FactsRun; interprocedural analyzers set
	// GlobalRun instead (exactly one of the three must be non-nil).
	Run func(pass *Pass)
	// FactsRun is a local analyzer driven by the package's phase-1 fact
	// set instead of walking the AST itself.
	FactsRun func(pass *Pass, pf *PkgFacts)
	// GlobalRun inspects the merged fact Unit once per analysis run,
	// reporting findings through gp.Report. Scope still applies: global
	// analyzers must self-filter sites by package path via gp.InScope.
	GlobalRun func(gp *GlobalPass)
}

// GlobalPass is the interprocedural analyzer's view: the merged fact Unit
// for every analyzed package, plus a reporter for position-carrying facts.
type GlobalPass struct {
	Unit *Unit

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a finding at a fact's resolved position.
func (g *GlobalPass) Report(pos token.Position, format string, args ...any) {
	*g.diags = append(*g.diags, Diagnostic{
		Pos:      pos,
		Analyzer: g.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InScope reports whether the analyzer's scope covers the import path.
func (g *GlobalPass) InScope(importPath string) bool {
	return g.analyzer.inScope(importPath)
}

// inScope reports whether the analyzer applies to the import path.
func (a *Analyzer) inScope(importPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, seg := range strings.Split(importPath, "/") {
		for _, want := range a.Scope {
			if seg == want {
				return true
			}
		}
	}
	return false
}

// All returns the full tracelint analyzer suite: the four local analyzers
// plus the four interprocedural ones running over the merged facts.
func All() []*Analyzer {
	return []*Analyzer{NilSafe, DetRange, ClockRand, ObsDrop, DetFlow, CtxFlow, TrustBound, ObsName}
}

// ByName returns the subset of All with the given names, erroring on an
// unknown name.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Analyze runs the analyzers over one typechecked package and returns the
// surviving (unsuppressed) findings, including any malformed-suppression
// diagnostics. The result is sorted by position then analyzer name.
// Interprocedural analyzers treat the single package as the whole graph —
// the engine (AnalyzeGraph) is the multi-package entry point.
func Analyze(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	return AnalyzeGraph([]*Pass{pass}, []*PkgFacts{CollectFacts(pass)}, analyzers)
}

// AnalyzeGraph is phase 2 of the facts engine: it runs local analyzers per
// pass and global (interprocedural) analyzers once over the merged fact
// sets, applies suppressions from every pass, and returns the surviving
// findings sorted by position then analyzer name. passes and facts are
// parallel slices (facts[i] collected from passes[i]).
func AnalyzeGraph(passes []*Pass, facts []*PkgFacts, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for i, pass := range passes {
		pass.diags = &diags
		for _, a := range analyzers {
			if !a.inScope(pass.ImportPath) {
				continue
			}
			pass.cur = a.Name
			if a.Run != nil {
				a.Run(pass)
			}
			if a.FactsRun != nil {
				a.FactsRun(pass, facts[i])
			}
		}
	}
	unit := MergeFacts(facts)
	for _, a := range analyzers {
		if a.GlobalRun == nil {
			continue
		}
		a.GlobalRun(&GlobalPass{Unit: unit, analyzer: a, diags: &diags})
	}
	sup := make(suppressionSet)
	var malformed []Diagnostic
	for _, pass := range passes {
		s, m := suppressions(pass)
		for k := range s {
			sup[k] = true
		}
		malformed = append(malformed, m...)
	}
	kept := diags[:0]
	for _, d := range diags {
		if sup.covers(d) {
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, malformed...)
	sortDiagnostics(kept)
	return kept
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreKey locates one suppression: a file, a line, and the analyzer it
// silences.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type suppressionSet map[ignoreKey]bool

// covers reports whether the diagnostic is silenced by an ignore comment on
// its own line or the line directly above.
func (s suppressionSet) covers(d Diagnostic) bool {
	return s[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		s[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
}

const ignorePrefix = "//lint:ignore"

// suppressions scans the pass's comments for //lint:ignore directives,
// returning the well-formed set and a diagnostic per malformed directive
// (missing analyzer name or reason — suppressing without saying why is
// exactly the convention-rot this suite exists to prevent).
func suppressions(pass *Pass) (suppressionSet, []Diagnostic) {
	set := make(suppressionSet)
	var malformed []Diagnostic
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      pass.Fset.Position(c.Pos()),
						Analyzer: "tracelint",
						Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				set[ignoreKey{pos.Filename, pos.Line, fields[0]}] = true
			}
		}
	}
	return set, malformed
}

package analysis

import "path/filepath"

// DetFlow is detrange generalized across call boundaries: the
// interprocedural determinism-taint analyzer. A function is *tainted* when
// it — or any transitive callee, through the merged call graph — hits a
// nondeterminism source (map-range order escaping the loop, a wall-clock
// read, a global math/rand draw) with no canonicalizing frame (a call into
// package sort or slices) in between. A tainted function in
// core/interleave/serve/pipeline that constructs a core.Result, or
// marshals through encoding/json, is a finding: the bytes it emits depend
// on an ordering no replay can reproduce, which is exactly the parallel ≡
// serial invariant the differential tests pin after the fact.
//
// Source sites carrying a //lint:ignore for their native analyzer
// (clockrand, detrange) or for detflow itself do not generate taint — a
// reviewed metrics-timing clock read is sanctioned precisely because its
// value never reaches a Result. Suppressing the sink site with
// //lint:ignore detflow works too, for marshalling that is genuinely
// order-independent.
var DetFlow = &Analyzer{
	Name:      "detflow",
	Doc:       "nondeterminism sources must not reach Result construction or JSON marshalling without an intervening sort",
	Scope:     []string{"core", "interleave", "serve", "pipeline"},
	GlobalRun: runDetFlow,
}

func runDetFlow(gp *GlobalPass) {
	u := gp.Unit
	leaks, via := u.TaintLeaks()
	for _, id := range u.FuncIDs() {
		ff := u.Funcs[id]
		if !leaks[id] || !gp.InScope(ff.PkgPath) {
			continue
		}
		path, src := u.TaintWitness(id, via)
		for _, sink := range ff.Sinks {
			if sink.Ignored {
				continue
			}
			gp.Report(sink.Pos,
				"%s is built while tainted by %s at %s:%d%s; sort/canonicalize before constructing results or marshalling (parallel ≡ serial invariant)",
				sink.Detail, describeSource(src), filepath.Base(src.Pos.Filename), src.Pos.Line, renderChain(path))
		}
	}
}

// describeSource names a source site's nondeterminism class for messages.
func describeSource(s Site) string {
	switch s.Kind {
	case SrcMapAppend:
		return "map-iteration-order append to " + s.Detail
	case SrcMapFloat:
		return "map-iteration-order float accumulation"
	case SrcClock:
		return "a wall-clock read (" + s.Detail + ")"
	case SrcGlobalRand:
		return "a global draw (" + s.Detail + ")"
	}
	return "a nondeterminism source"
}

// renderChain renders the witness call path when the taint is transitive;
// a self-sourced frame (path length 1) needs no chain.
func renderChain(path []string) string {
	if len(path) <= 1 {
		return ""
	}
	out := " via "
	for i, p := range path {
		if i > 0 {
			out += " -> "
		}
		out += p
	}
	return out
}

package analysis

// CtxFlow is the static twin of the chunked-poll discipline the serving
// stack established: a function that accepts a context.Context must thread
// it. Two shapes are findings in the cancellation-critical packages:
//
//   - a literal context.Background() or context.TODO() handed to a callee's
//     ctx parameter while the function's own context is in scope — the
//     callee silently detaches from the caller's deadline and cancellation,
//     which is how a cancelled selection keeps its scan burning;
//   - a for/range loop whose body exceeds ctxLoopNodeThreshold AST nodes
//     without mentioning the context at all — a scan loop that can neither
//     be cancelled nor time out. Small bookkeeping loops stay exempt.
//
// Deliberate detachment (a drain that must outlive the cancelled serve
// context) is annotated //lint:ignore ctxflow <reason> — the reason is the
// review record that the detachment is on purpose.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "context-taking functions must thread ctx to ctx-accepting callees and poll it in long loops",
	Scope:     []string{"core", "interleave", "flow", "pipeline", "serve", "campaign", "traceserved"},
	GlobalRun: runCtxFlow,
}

func runCtxFlow(gp *GlobalPass) {
	u := gp.Unit
	for _, id := range u.FuncIDs() {
		ff := u.Funcs[id]
		if !gp.InScope(ff.PkgPath) {
			continue
		}
		for _, site := range ff.CtxBadCalls {
			if site.Ignored {
				continue
			}
			gp.Report(site.Pos,
				"%s takes %s but passes %s; thread the caller's context so cancellation and deadlines propagate (annotate deliberate detachment with //lint:ignore ctxflow <reason>)",
				ff.Short, ff.CtxName, site.Detail)
		}
		for _, loop := range ff.CtxLoops {
			gp.Report(loop.Pos,
				"loop body (%d nodes) in %s never consults %s; poll ctx (ctx.Err/ctx.Done) or pass it down so long scans stay cancellable",
				loop.Nodes, ff.Short, ff.CtxName)
		}
	}
}

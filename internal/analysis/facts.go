package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is phase 1 of the two-phase analysis engine: per-package fact
// collection. A FuncFacts is a plain-data summary of one function — who it
// calls (the static call graph), which nondeterminism sources it touches,
// which result types it constructs, how it handles contexts, decoders, and
// metric names. Fact sets are independent of any analyzer: they are
// collected once per package, cached by the engine, merged across the
// `go list` package graph, and then phase 2 (the interprocedural analyzers)
// runs over the merged Unit without ever re-reading source.
//
// Everything in a fact set is serializable plain data (positions are
// resolved token.Positions, functions are canonical string IDs), so facts
// survive being merged across packages that were typechecked separately.

// Source kinds: the nondeterminism sources detflow taints through.
const (
	SrcMapAppend  = "mapappend" // map-range append to loop-outlived state, no later sort
	SrcMapFloat   = "mapfloat"  // float compound-assignment in map-range order
	SrcClock      = "clock"     // time.Now / Since / Until
	SrcGlobalRand = "grand"     // package-global math/rand draw
)

// Sink kinds: where detflow forbids tainted data to arrive.
const (
	SinkResult  = "result"  // core.Result composite literal
	SinkMarshal = "marshal" // encoding/json marshal or Encoder.Encode
)

// Site is one fact anchored to a source position.
type Site struct {
	Pos    token.Position
	Kind   string
	Detail string
	// Ignored marks a source site whose line carries a reviewed
	// //lint:ignore for the site's native analyzer (or for detflow): the
	// site still exists, but taint analysis must not propagate it — that is
	// how the registry-gated metrics-timing allowlist keeps core.Select
	// from tainting every Result it builds.
	Ignored bool
}

// CallSite is one outgoing call-graph edge: the callee's canonical ID.
// Interface-method callees carry the "iface:" prefix and are fanned out to
// declared implementations when fact sets merge.
type CallSite struct {
	Pos    token.Position
	Callee string
}

// DecoderSite is one json.NewDecoder construction and whether the decoder
// variable receives a DisallowUnknownFields call in the same function.
type DecoderSite struct {
	Pos      token.Position
	Disallow bool
}

// MetricSite is one obs metric registration with a literal name: a call to
// Registry.Counter / Gauge / Histogram / Add whose name argument is a
// string literal.
type MetricSite struct {
	Pos    token.Position
	Name   string
	Method string
}

// NilGuardSite is one exported pointer-receiver method that touches
// receiver fields without a leading nil guard.
type NilGuardSite struct {
	Pos      token.Position
	TypeName string
	Method   string
}

// NilRegSite is one literal nil passed to a *obs.Registry parameter by a
// function that itself receives a registry.
type NilRegSite struct {
	Pos    token.Position
	Func   string // the dropping function's name
	Callee string // rendered callee expression
}

// LoopSite is one for/range statement inside a context-taking function
// whose body exceeds the size threshold without mentioning the context.
type LoopSite struct {
	Pos   token.Position
	Nodes int
}

// FuncFacts summarizes one declared function or method.
type FuncFacts struct {
	ID      string // canonical cross-package identifier
	Short   string // display name, e.g. Select or (*Handler).ServeHTTP
	PkgPath string
	Pos     token.Position

	Calls   []CallSite
	Sources []Site
	Sinks   []Site
	// Canonicalizes: the function calls into package sort or slices — the
	// collect-then-sort idiom. detflow treats such a frame as a taint
	// barrier: nondeterministic order below it does not leak past it.
	Canonicalizes bool

	// Context facts.
	TakesCtx    bool
	CtxName     string
	CtxBadCalls []Site     // context.Background()/TODO() handed to a ctx parameter
	CtxLoops    []LoopSite // oversized loops that never mention the context

	// Trust-boundary facts.
	HTTPHandler bool
	Decoders    []DecoderSite
	Validates   bool

	// Ported-analyzer facts.
	NilGuards []NilGuardSite
	NilRegs   []NilRegSite
	// HasRegistryParam marks functions handed a *obs.Registry (the obsdrop
	// precondition).
	HasRegistryParam bool
}

// PkgFacts is one package's fact set.
type PkgFacts struct {
	Path  string
	Funcs []*FuncFacts
	// Impls maps an interface method ID ("iface:pkg.Iface.Method") to the
	// concrete method IDs of declared implementations visible from this
	// package (its own scope plus direct imports) — the declared-interface
	// fan-out the call graph resolves dynamic dispatch with.
	Impls map[string][]string
	// Metrics lists every literal obs metric-name registration.
	Metrics []MetricSite
}

// FuncID returns the canonical cross-package identifier of a function
// object: pkgpath.Name for package functions, pkgpath.(Type).Name for
// methods (pointerness erased, generics folded to their origin). Two
// packages typechecked independently agree on the ID of a shared function,
// which is what lets fact sets merge.
func FuncID(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	return pkg + ".(" + recvTypeName(sig.Recv().Type()) + ")." + fn.Name()
}

// ifaceMethodID is the placeholder callee ID of a dynamic call through a
// named interface.
func ifaceMethodID(named *types.Named, method string) string {
	obj := named.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return "iface:" + pkg + "." + obj.Name() + "." + method
}

// recvTypeName names a receiver's base type ("" when unnamed).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Interface:
		return ""
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// pathHasSegment reports whether one of wants appears as a full segment of
// the slash-separated import path — the same matching Analyzer.Scope uses.
func pathHasSegment(path string, wants ...string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, want := range wants {
			if seg == want {
				return true
			}
		}
	}
	return false
}

// CollectFacts runs phase 1 over one typechecked package.
func CollectFacts(pass *Pass) *PkgFacts {
	sup, _ := suppressions(pass)
	pf := &PkgFacts{Path: pass.ImportPath, Impls: make(map[string][]string)}
	c := &collector{pass: pass, pf: pf, sup: sup}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				c.collectFunc(fd)
			}
		}
	}
	c.collectPackageLevel()
	c.collectImpls()
	sort.Slice(pf.Funcs, func(i, j int) bool { return pf.Funcs[i].ID < pf.Funcs[j].ID })
	sort.Slice(pf.Metrics, func(i, j int) bool {
		a, b := pf.Metrics[i], pf.Metrics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line || (a.Pos.Line == b.Pos.Line && a.Pos.Column < b.Pos.Column)
	})
	for _, impls := range pf.Impls {
		sort.Strings(impls)
	}
	return pf
}

type collector struct {
	pass *Pass
	pf   *PkgFacts
	sup  suppressionSet
}

// ignoredAt reports whether a //lint:ignore for any of the analyzers
// covers the position (same line or the line above).
func (c *collector) ignoredAt(pos token.Position, analyzers ...string) bool {
	for _, a := range analyzers {
		if c.sup[ignoreKey{pos.Filename, pos.Line, a}] || c.sup[ignoreKey{pos.Filename, pos.Line - 1, a}] {
			return true
		}
	}
	return false
}

func (c *collector) position(pos token.Pos) token.Position {
	return c.pass.Fset.Position(pos)
}

func (c *collector) collectFunc(fd *ast.FuncDecl) {
	fn, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	ff := &FuncFacts{
		ID:      FuncID(fn),
		Short:   shortName(fd),
		PkgPath: c.pass.ImportPath,
		Pos:     c.position(fd.Name.Pos()),
	}
	sig := fn.Type().(*types.Signature)
	ff.HTTPHandler = isHandlerSignature(sig)
	ff.HasRegistryParam = hasRegistryParam(sig)
	ff.TakesCtx, ff.CtxName = ctxParam(sig)

	if fd.Body != nil {
		c.collectCalls(ff, fd.Body)
		c.collectSources(ff, fd.Body)
		c.collectSinks(ff, fd.Body)
		c.collectCtx(ff, fd)
		c.collectDecoders(ff, fd.Body)
		c.collectMetrics(fd.Body)
		c.collectNilRegs(ff, fd)
	}
	if site, ok := collectNilGuard(c.pass, fd); ok {
		site.Pos = c.position(site.rawPos)
		ff.NilGuards = append(ff.NilGuards, site.NilGuardSite)
	}
	c.pf.Funcs = append(c.pf.Funcs, ff)
}

// collectPackageLevel sweeps package-level variable initializers into one
// synthetic fact set per package, so clock/global-rand draws outside any
// function body (`var start = time.Now()`) survive the port onto facts.
func (c *collector) collectPackageLevel() {
	var ff *FuncFacts
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					if ff == nil {
						ff = &FuncFacts{
							ID:      c.pass.ImportPath + ".(package-init)",
							Short:   "(package-init)",
							PkgPath: c.pass.ImportPath,
							Pos:     c.position(gd.Pos()),
						}
					}
					c.collectClockRandSources(ff, v)
				}
			}
		}
	}
	if ff != nil {
		sortSites(ff.Sources)
		c.pf.Funcs = append(c.pf.Funcs, ff)
	}
}

func shortName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// collectCalls records every resolvable outgoing edge: called functions,
// called methods (interface calls as "iface:" placeholders), and
// referenced function values (a function handed to HandleFunc or a
// goroutine is assumed callable — the call graph over-approximates rather
// than losing the edge).
func (c *collector) collectCalls(ff *FuncFacts, body *ast.BlockStmt) {
	seen := make(map[string]bool)
	add := func(pos token.Pos, id string) {
		if id == "" || seen[id] {
			return
		}
		seen[id] = true
		ff.Calls = append(ff.Calls, CallSite{Pos: c.position(pos), Callee: id})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			// Package-level functions only: methods are resolved through
			// their SelectorExpr so interface dispatch fans out correctly.
			if fn, ok := c.pass.Info.Uses[e].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					add(e.Pos(), FuncID(fn))
				}
			}
		case *ast.SelectorExpr:
			sel := c.pass.Info.Selections[e]
			if sel == nil || sel.Kind() != types.MethodVal {
				return true
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return true
			}
			recv := sel.Recv()
			if _, isIface := recv.Underlying().(*types.Interface); isIface {
				if named, ok := types.Unalias(recv).(*types.Named); ok {
					add(e.Sel.Pos(), ifaceMethodID(named, fn.Name()))
					return true
				}
			}
			add(e.Sel.Pos(), FuncID(fn))
		}
		return true
	})
	sort.Slice(ff.Calls, func(i, j int) bool { return ff.Calls[i].Callee < ff.Calls[j].Callee })
}

// collectSources gathers the nondeterminism sources: detrange-shaped map
// ranges and clockrand-shaped clock/global-rand draws. The detrange and
// clockrand analyzers report these same sites per package; detflow taints
// them across calls.
func (c *collector) collectSources(ff *FuncFacts, body *ast.BlockStmt) {
	// Map-iteration order escaping the loop (the detrange conditions).
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := c.pass.Info.Types[rng.X].Type; t == nil || !isMap(t) {
			return true
		}
		c.collectMapRange(ff, body, rng)
		return true
	})
	// Wall-clock reads and global math/rand draws.
	c.collectClockRandSources(ff, body)
	sortSites(ff.Sources)
	if hasSortCall(c.pass, body) {
		ff.Canonicalizes = true
	}
}

// collectClockRandSources appends clock and global-rand source sites found
// anywhere under node (the clockrand conditions).
func (c *collector) collectClockRandSources(ff *FuncFacts, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := c.pass.Info.Uses[ident].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return true
		}
		pos := c.position(ident.Pos())
		switch path := fn.Pkg().Path(); {
		case path == "time" && clockFuncs[fn.Name()]:
			ff.Sources = append(ff.Sources, Site{
				Pos: pos, Kind: SrcClock, Detail: "time." + fn.Name(),
				Ignored: c.ignoredAt(pos, "clockrand", "detflow"),
			})
		case isMathRand(path) && !randConstructors[fn.Name()]:
			ff.Sources = append(ff.Sources, Site{
				Pos: pos, Kind: SrcGlobalRand, Detail: path + "." + fn.Name(),
				Ignored: c.ignoredAt(pos, "clockrand", "detflow"),
			})
		}
		return true
	})
}

func (c *collector) collectMapRange(ff *FuncFacts, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) == 0 {
			return true
		}
		lhs := assign.Lhs[0]
		pos := c.position(assign.Pos())
		switch assign.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if isFloat(c.pass.Info.Types[lhs].Type) && !declaredWithin(c.pass, lhs, rng.Body) {
				ff.Sources = append(ff.Sources, Site{
					Pos: pos, Kind: SrcMapFloat,
					Ignored: c.ignoredAt(pos, "detrange", "detflow"),
				})
			}
		case token.ASSIGN, token.DEFINE:
			if len(assign.Rhs) != 1 || !isAppendCall(c.pass, assign.Rhs[0]) {
				return true
			}
			obj := rootObject(c.pass, lhs)
			if obj == nil || declPosWithin(obj, rng.Body) {
				return true
			}
			if sortedAfter(c.pass, fnBody, rng, obj) {
				return true
			}
			ff.Sources = append(ff.Sources, Site{
				Pos: pos, Kind: SrcMapAppend, Detail: obj.Name(),
				Ignored: c.ignoredAt(pos, "detrange", "detflow"),
			})
		}
		return true
	})
}

// hasSortCall reports a call into package sort or slices anywhere in body.
func hasSortCall(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkgName, ok := pass.Info.Uses[pkgIdent].(*types.PkgName); ok {
			if path := pkgName.Imported().Path(); path == "sort" || path == "slices" {
				found = true
			}
		}
		return true
	})
	return found
}

// collectSinks records the determinism-critical constructions: core Result
// composite literals and encoding/json marshalling.
func (c *collector) collectSinks(ff *FuncFacts, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CompositeLit:
			t := c.pass.Info.Types[e].Type
			if t == nil {
				return true
			}
			if coreResultType(t) {
				pos := c.position(e.Pos())
				ff.Sinks = append(ff.Sinks, Site{
					Pos: pos, Kind: SinkResult, Detail: "core.Result",
					Ignored: c.ignoredAt(pos, "detflow"),
				})
			}
		case *ast.CallExpr:
			if detail, ok := jsonMarshalCall(c.pass, e); ok {
				pos := c.position(e.Pos())
				ff.Sinks = append(ff.Sinks, Site{
					Pos: pos, Kind: SinkMarshal, Detail: detail,
					Ignored: c.ignoredAt(pos, "detflow"),
				})
			}
		}
		return true
	})
	sortSites(ff.Sinks)
}

// coreResultType reports whether t is the Result struct of a core package
// (matched by import-path tail, like the obs Registry match).
func coreResultType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Result" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "core" || strings.HasSuffix(path, "/core")
}

// jsonMarshalCall matches json.Marshal / json.MarshalIndent and
// (*json.Encoder).Encode.
func jsonMarshalCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		fn, ok := s.Obj().(*types.Func)
		if !ok || fn.Name() != "Encode" || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
			return "", false
		}
		return "(*json.Encoder).Encode", true
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return "", false
	}
	if fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" {
		return "json." + fn.Name(), true
	}
	return "", false
}

// ctxParam finds a named context.Context parameter.
func ctxParam(sig *types.Signature) (bool, string) {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if p.Name() == "" || p.Name() == "_" {
			continue
		}
		if isContextType(p.Type()) {
			return true, p.Name()
		}
	}
	return false, ""
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ctxLoopNodeThreshold is the body size (in AST nodes) past which a loop in
// a context-taking function must mention the context — either polling
// ctx.Err/ctx.Done or passing ctx onward. Small bookkeeping loops stay
// exempt; anything the size of a scan loop must stay cancellable.
const ctxLoopNodeThreshold = 60

// collectCtx gathers the ctxflow facts: Background/TODO handed to a
// context parameter while the function's own context is in scope, and
// oversized loops that never mention the context.
func (c *collector) collectCtx(ff *FuncFacts, fd *ast.FuncDecl) {
	if !ff.TakesCtx {
		return
	}
	ctxObj := c.ctxParamObj(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sig, ok := calleeSignature(c.pass, call)
		if !ok {
			return true
		}
		for i, arg := range call.Args {
			name, ok := backgroundOrTODO(c.pass, arg)
			if !ok {
				continue
			}
			pt, ok := paramTypeAt(sig, i)
			if !ok || !isContextType(pt) {
				continue
			}
			pos := c.position(arg.Pos())
			ff.CtxBadCalls = append(ff.CtxBadCalls, Site{
				Pos: pos, Kind: "ctxliteral",
				Detail:  name + "() to " + types.ExprString(call.Fun),
				Ignored: c.ignoredAt(pos, "ctxflow"),
			})
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch s := n.(type) {
		case *ast.ForStmt:
			body = s.Body
		case *ast.RangeStmt:
			body = s.Body
		default:
			return true
		}
		nodes := countNodes(body)
		if nodes < ctxLoopNodeThreshold || nodeMentionsObject(c.pass, body, ctxObj) {
			return true
		}
		pos := c.position(n.Pos())
		if c.ignoredAt(pos, "ctxflow") {
			return true
		}
		ff.CtxLoops = append(ff.CtxLoops, LoopSite{Pos: pos, Nodes: nodes})
		return true
	})
}

// nodeMentionsObject reports whether any identifier in the subtree uses
// obj (mentionsObject generalized from ast.Expr to any node).
func nodeMentionsObject(pass *Pass, n ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && pass.Info.Uses[ident] == obj {
			found = true
		}
		return !found
	})
	return found
}

func (c *collector) ctxParamObj(fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := c.pass.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// backgroundOrTODO matches a literal context.Background() / context.TODO()
// call expression.
func backgroundOrTODO(pass *Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return "context." + fn.Name(), true
	}
	return "", false
}

func countNodes(n ast.Node) int {
	count := 0
	ast.Inspect(n, func(n ast.Node) bool {
		if n != nil {
			count++
		}
		return true
	})
	return count
}

// collectDecoders records json.NewDecoder constructions and whether the
// decoder variable is hardened with DisallowUnknownFields.
func (c *collector) collectDecoders(ff *FuncFacts, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := c.pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Name() != "NewDecoder" || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
			return true
		}
		ff.Decoders = append(ff.Decoders, DecoderSite{
			Pos:      c.position(call.Pos()),
			Disallow: decoderDisallowed(c.pass, body, call),
		})
		return true
	})
	if bodyCallsValidator(c.pass, body) {
		ff.Validates = true
	}
}

// decoderDisallowed reports whether the variable the NewDecoder call is
// assigned to receives a DisallowUnknownFields call in the same function.
func decoderDisallowed(pass *Pass, body *ast.BlockStmt, newDec *ast.CallExpr) bool {
	var decObj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || decObj != nil {
			return decObj == nil
		}
		for i, rhs := range assign.Rhs {
			if ast.Unparen(rhs) != newDec || i >= len(assign.Lhs) {
				continue
			}
			if ident, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.Defs[ident]; obj != nil {
					decObj = obj
				} else if obj := pass.Info.Uses[ident]; obj != nil {
					decObj = obj
				}
			}
		}
		return decObj == nil
	})
	if decObj == nil {
		return false // chained or discarded decoder: cannot be hardened
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "DisallowUnknownFields" {
			return true
		}
		if ident, ok := sel.X.(*ast.Ident); ok && pass.Info.Uses[ident] == decObj {
			found = true
		}
		return true
	})
	return found
}

// bodyCallsValidator reports a call to something validation-shaped: a
// function or method whose name contains "valid" (Validate, validate,
// ValidateConfig, isValid...).
func bodyCallsValidator(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch f := call.Fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		if strings.Contains(strings.ToLower(name), "valid") {
			found = true
		}
		return true
	})
	return found
}

// isHandlerSignature matches func(http.ResponseWriter, *http.Request).
func isHandlerSignature(sig *types.Signature) bool {
	params := sig.Params()
	if params.Len() != 2 {
		return false
	}
	return isNetHTTPType(params.At(0).Type(), "ResponseWriter") &&
		isNetHTTPPtr(params.At(1).Type(), "Request")
}

func isNetHTTPType(t types.Type, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

func isNetHTTPPtr(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNetHTTPType(ptr.Elem(), name)
}

// collectMetrics records literal obs metric-name registrations.
func (c *collector) collectMetrics(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := c.pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.MethodVal {
			return true
		}
		fn, ok := s.Obj().(*types.Func)
		if !ok || !metricMethods[fn.Name()] || !isRegistryType(s.Recv()) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := unquote(lit.Value)
		if err != nil {
			return true
		}
		c.pf.Metrics = append(c.pf.Metrics, MetricSite{
			Pos:    c.position(lit.Pos()),
			Name:   name,
			Method: fn.Name(),
		})
		return true
	})
}

var metricMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Add":       true,
}

// isRegistryType reports whether t is obs.Registry or *obs.Registry.
func isRegistryType(t types.Type) bool {
	if isRegistryPtr(t) {
		return true
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

func unquote(s string) (string, error) {
	return strconv.Unquote(s)
}

// collectNilRegs gathers the obsdrop sites: literal nil handed to a
// registry parameter by a function that itself receives a registry.
func (c *collector) collectNilRegs(ff *FuncFacts, fd *ast.FuncDecl) {
	if !ff.HasRegistryParam {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sig, ok := calleeSignature(c.pass, call)
		if !ok {
			return true
		}
		for i, arg := range call.Args {
			if !isNilIdent(c.pass, arg) {
				continue
			}
			pt, ok := paramTypeAt(sig, i)
			if ok && isRegistryPtr(pt) {
				ff.NilRegs = append(ff.NilRegs, NilRegSite{
					Pos:    c.position(arg.Pos()),
					Func:   fd.Name.Name,
					Callee: types.ExprString(call.Fun),
				})
			}
		}
		return true
	})
}

// collectImpls resolves declared-interface fan-out: for every named
// non-interface type declared in this package, and every named interface
// visible from it (its own scope and its direct imports' scopes), record
// which concrete method implements each interface method. This is the only
// dynamic dispatch the call graph resolves; function values and reflection
// stay out of reach (a documented soundness limit).
func (c *collector) collectImpls() {
	ifaces := visibleInterfaces(c.pass.Pkg)
	scope := c.pass.Pkg.Scope()
	for _, tname := range scope.Names() {
		obj, ok := scope.Lookup(tname).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		for _, in := range ifaces {
			iface := in.Underlying().(*types.Interface)
			if iface.NumMethods() == 0 {
				continue
			}
			impl := types.Type(named)
			if !types.Implements(impl, iface) {
				impl = types.NewPointer(named)
				if !types.Implements(impl, iface) {
					continue
				}
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					key := ifaceMethodID(in, m.Name())
					c.pf.Impls[key] = append(c.pf.Impls[key], FuncID(fn))
				}
			}
		}
	}
}

// visibleInterfaces lists the named interfaces declared in pkg and its
// direct imports.
func visibleInterfaces(pkg *types.Package) []*types.Named {
	var out []*types.Named
	scan := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				out = append(out, named)
			}
		}
	}
	scan(pkg)
	for _, imp := range pkg.Imports() {
		scan(imp)
	}
	return out
}

func sortSites(sites []Site) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
}

// nilGuardResult pairs the plain-data site with the raw position the
// collector resolves.
type nilGuardResult struct {
	NilGuardSite
	rawPos token.Pos
}

// collectNilGuard reports an exported pointer-receiver method that touches
// receiver fields without a leading nil guard (the nilsafe condition,
// detached from any package scoping — the analyzer decides which types the
// contract covers).
func collectNilGuard(pass *Pass, fd *ast.FuncDecl) (nilGuardResult, bool) {
	if fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
		return nilGuardResult{}, false
	}
	recv, typeName := pointerReceiver(pass, fd)
	if typeName == "" || recv == nil {
		return nilGuardResult{}, false
	}
	if !receiverFieldAccess(pass, fd.Body, recv) {
		return nilGuardResult{}, false
	}
	if beginsWithNilGuard(pass, fd.Body, recv) {
		return nilGuardResult{}, false
	}
	return nilGuardResult{
		NilGuardSite: NilGuardSite{TypeName: typeName, Method: fd.Name.Name},
		rawPos:       fd.Name.Pos(),
	}, true
}

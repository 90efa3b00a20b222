package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilSafe enforces the obs package's documented contract: every method on a
// nil *Registry, *Counter, *Gauge, *Histogram, or *Trace must be a no-op.
// Mechanically: an exported pointer-receiver method that reads or writes a
// field of its receiver must make `if recv == nil { return ... }` its first
// statement. Methods that never touch a receiver field — pure delegations
// like Counter.Inc (c.Add(1)) or Registry.WriteJSON (r.Snapshot()) — are
// nil-safe by induction through the methods they call and need no guard.
var NilSafe = &Analyzer{
	Name:     "nilsafe",
	Doc:      "exported pointer-receiver methods in internal/obs (and the nil-contract types elsewhere) must nil-guard before touching receiver fields",
	Scope:    []string{"obs", "pipeline", "serve"},
	FactsRun: runNilSafe,
}

// nilContractTypes are the types outside internal/obs that carry the same
// documented nil-is-a-no-op contract: a nil *ResultStore stores nothing and
// misses every Get. Inside obs the contract covers every exported
// pointer-receiver method, so no allowlist applies there.
var nilContractTypes = map[string]bool{
	"ResultStore": true,
}

// runNilSafe reports the unguarded-method sites the collector recorded,
// restricted outside obs to the explicit nil-contract types.
func runNilSafe(pass *Pass, pf *PkgFacts) {
	obsPkg := pathHasSegment(pf.Path, "obs")
	for _, ff := range pf.Funcs {
		for _, site := range ff.NilGuards {
			if !obsPkg && !nilContractTypes[site.TypeName] {
				continue
			}
			pass.ReportPosf(site.Pos,
				"exported method (*%s).%s touches receiver fields without a leading nil-receiver guard (obs nil-safe contract)",
				site.TypeName, site.Method)
		}
	}
}

// pointerReceiver returns the receiver's *types.Var and the receiver base
// type name when fd has a named pointer receiver; typeName is "" for value
// receivers.
func pointerReceiver(pass *Pass, fd *ast.FuncDecl) (*types.Var, string) {
	if len(fd.Recv.List) != 1 {
		return nil, ""
	}
	field := fd.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return nil, ""
	}
	base := star.X
	if idx, ok := base.(*ast.IndexExpr); ok { // generic receiver *T[P]
		base = idx.X
	}
	ident, ok := base.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	if len(field.Names) == 0 || field.Names[0].Name == "_" {
		return nil, ident.Name
	}
	obj, _ := pass.Info.Defs[field.Names[0]].(*types.Var)
	if obj == nil {
		return nil, ""
	}
	return obj, ident.Name
}

// receiverFieldAccess reports whether the body selects a field of the
// receiver (recv.f), the one operation that panics on a nil receiver.
// Method calls rooted at the receiver (recv.M(...), recv.M().N(...)) are
// fine: each callee is itself held to the contract.
func receiverFieldAccess(pass *Pass, body *ast.BlockStmt, recv *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || pass.Info.Uses[ident] != recv {
			return true
		}
		if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			found = true
		}
		return true
	})
	return found
}

// beginsWithNilGuard reports whether the body's first statement is
// `if recv == nil { ... return ... }` (possibly `recv == nil || more`),
// with the guard body ending in a return.
func beginsWithNilGuard(pass *Pass, body *ast.BlockStmt, recv *types.Var) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	if !condChecksNil(pass, ifStmt.Cond, recv) {
		return false
	}
	n := len(ifStmt.Body.List)
	if n == 0 {
		return false
	}
	_, ok = ifStmt.Body.List[n-1].(*ast.ReturnStmt)
	return ok
}

// condChecksNil reports whether cond is `recv == nil` or an || chain with
// `recv == nil` as an operand.
func condChecksNil(pass *Pass, cond ast.Expr, recv *types.Var) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condChecksNil(pass, e.X, recv)
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return condChecksNil(pass, e.X, recv) || condChecksNil(pass, e.Y, recv)
		}
		if e.Op != token.EQL {
			return false
		}
		return isRecvNilPair(pass, e.X, e.Y, recv) || isRecvNilPair(pass, e.Y, e.X, recv)
	}
	return false
}

func isRecvNilPair(pass *Pass, a, b ast.Expr, recv *types.Var) bool {
	ident, ok := a.(*ast.Ident)
	if !ok || pass.Info.Uses[ident] != recv {
		return false
	}
	nilIdent, ok := b.(*ast.Ident)
	return ok && nilIdent.Name == "nil"
}

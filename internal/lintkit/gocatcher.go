package lintkit

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoCatcher enforces panic containment on goroutine launches in the
// compute and serving fan-out packages.
//
// PR 7's incident: one NaN-poisoned run panicked on a detached worker
// goroutine inside the force fan-out and took the whole serving process
// down — every in-flight job with it. The fix was internal/par.Catcher:
// workers defer Catch, the spawner rethrows on its own goroutine, and the
// serving layer recovers there and fails the one job. This analyzer makes
// that pattern mandatory: inside the fan-out packages, every `go`
// statement must launch a body with panic containment — a deferred
// par.Catcher.Catch, a deferred recover() literal, or a deferred
// same-package function that recovers. Named goroutine bodies are chased
// one level within the package; bodies the analyzer cannot see are
// findings to fix or baseline, not silent passes.
var GoCatcher = &Analyzer{
	Name: "gocatcher",
	Doc:  "go statements in compute/fan-out packages must contain panics (defer par.Catcher.Catch or recover) so one bad run cannot crash the process",
	Run:  runGoCatcher,
}

// goCatcherScope is the set of package names under the analyzer's
// contract: the compute fan-outs (par, sfc, tree, sph, gravity, simmpi,
// core) and the serving layer that launches workers and collectors.
var goCatcherScope = map[string]bool{
	"par":     true,
	"sfc":     true,
	"tree":    true,
	"sph":     true,
	"gravity": true,
	"simmpi":  true,
	"core":    true,
	"server":  true,
}

func runGoCatcher(p *Pass) error {
	if !goCatcherScope[p.Pkg.Name()] {
		return nil
	}
	decls := declOfFuncs(p)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(p, g, decls)
			return true
		})
	}
	return nil
}

func checkGoStmt(p *Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if !bodyContains(p, fun.Body, decls, 0) {
			p.Reportf(g.Pos(),
				"goroutine body has no panic containment: defer par.Catcher.Catch (or a recover) as its first statements, or a worker panic kills the process")
		}
	default:
		fn := funcObjOf(p.Info, g.Call)
		if fn == nil {
			p.Reportf(g.Pos(), "go statement launches an unresolvable callee; route it through par.Catcher")
			return
		}
		decl, ok := decls[fn]
		if !ok {
			p.Reportf(g.Pos(),
				"go %s launches a goroutine whose body is outside this package: the analyzer cannot prove panic containment; wrap it in a func literal with defer par.Catcher.Catch (or recover)",
				fn.Name())
			return
		}
		if !bodyContains(p, decl.Body, decls, 0) {
			p.Reportf(g.Pos(),
				"go %s launches a goroutine without panic containment: %s must defer par.Catcher.Catch or a recover, or a panic in it kills the process",
				fn.Name(), fn.Name())
		}
	}
}

// bodyContains reports whether the function body installs panic
// containment: a deferred par.Catcher.Catch, a deferred literal that
// recovers, or a deferred same-package function that recovers (chased to
// bounded depth).
func bodyContains(p *Pass, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl, depth int) bool {
	if body == nil || depth > 2 {
		return false
	}
	contained := false
	inspectStmtsShallow(body, func(n ast.Node) bool {
		if contained {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(d.Call.Fun).(type) {
		case *ast.FuncLit:
			if containsRecover(p, fun.Body) {
				contained = true
			}
		default:
			fn := funcObjOf(p.Info, d.Call)
			if fn == nil {
				return true
			}
			if isCatcherCatch(p, fn) {
				contained = true
				return false
			}
			if decl, ok := decls[fn]; ok && decl.Body != nil && containsRecover(p, decl.Body) {
				contained = true
			}
		}
		return true
	})
	return contained
}

// isCatcherCatch reports whether fn is (*par.Catcher).Catch — matched by
// receiver type name and package path suffix so the check holds for the
// real internal/par from any importing package.
func isCatcherCatch(p *Pass, fn *types.Func) bool {
	if fn.Name() != "Catch" {
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != "Catcher" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == p.Module+"/internal/par" || strings.HasSuffix(pkg.Path(), "/par") || pkg.Name() == "par")
}

// containsRecover reports a direct recover() call in the body, outside
// nested function literals (where it would not stop this goroutine's
// panic).
func containsRecover(p *Pass, body *ast.BlockStmt) bool {
	found := false
	inspectStmtsShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(p.Info, call, "recover") {
			found = true
		}
		return true
	})
	// A deferred literal inside this body that recovers also contains the
	// panic (the common `defer func(){ if v := recover(); ... }()` shape
	// nested one level down, e.g. a helper that installs its own guard).
	if !found {
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			d, ok := n.(*ast.DeferStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
				if litHasRecover(p, lit.Body) {
					found = true
				}
			}
			return true
		})
	}
	return found
}

func litHasRecover(p *Pass, body *ast.BlockStmt) bool {
	found := false
	inspectStmtsShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(p.Info, call, "recover") {
			found = true
		}
		return true
	})
	return found
}

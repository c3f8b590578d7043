package analysis

import (
	"go/ast"
	"go/types"
)

// panicsafeScopePackages limits the analyzer to the long-running layers
// where an unrecovered goroutine panic kills the whole process: the
// concurrency primitives, the HTTP daemon, the cluster layer (its
// health prober is a background goroutine living as long as the
// daemon), and the binaries (package main covers cmd/* and
// examples/*). Pipeline packages run inside parallel.Graph stages,
// which already recover for them.
var panicsafeScopePackages = map[string]bool{
	"parallel": true,
	"serve":    true,
	"cluster":  true,
	"main":     true,
	// stagecache is shared infrastructure under the daemon: any future
	// background goroutine (async spill, janitor) must not be able to
	// kill the process.
	"stagecache": true,
	// durable sits under the daemon's spill and stage stores: any
	// future background goroutine there must not kill the process.
	"durable": true,
}

// PanicSafe flags `go` statements that launch a goroutine without a
// panic backstop. A panic inside a bare goroutine cannot be caught by
// any caller — it unwinds straight past every http.Handler and graph
// recover and crashes the daemon. Every goroutine in the scoped
// packages must either start with a deferred function literal that
// calls recover(), defer a same-package helper that does, or (for
// `go named(...)`) target a function whose own body installs one.
var PanicSafe = &Analyzer{
	Name: "panicsafe",
	Doc:  "goroutines in the daemon and concurrency layers must recover panics",
	Run:  runPanicSafe,
}

func runPanicSafe(pass *Pass) error {
	if pass.Pkg == nil || !panicsafeScopePackages[pass.Pkg.Name()] {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if !hasRecoveringDefer(pass, decls, lit.Body) {
					pass.Reportf(g.Pos(),
						"goroutine does not recover panics; a panic here kills the process — start the body with a deferred recover")
				}
				return true
			}
			// `go named(...)` / `go recv.method(...)`: safe only if the
			// target is a same-package function whose body installs its
			// own recover.
			if fd := calleeDecl(pass, decls, g.Call); fd != nil && fd.Body != nil &&
				hasRecoveringDefer(pass, decls, fd.Body) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine target has no panic backstop; wrap it: go func() { defer ... recover() ...; f() }()")
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes this package's function declarations by their
// types object, so deferred calls to named helpers can be resolved to
// bodies.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// calleeDecl resolves a call to the *ast.FuncDecl of a function declared
// in this package, or nil (function literal variables, other packages,
// interface methods).
func calleeDecl(pass *Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return decls[fn]
}

// hasRecoveringDefer reports whether a statement directly in body's list
// is a defer that will observe a panic: a deferred function literal
// calling recover() in its own frame, or a deferred call to a
// same-package function that does.
func hasRecoveringDefer(pass *Pass, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		def, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if lit, ok := def.Call.Fun.(*ast.FuncLit); ok {
			if callsRecoverDirectly(lit.Body) {
				return true
			}
			continue
		}
		if fd := calleeDecl(pass, decls, def.Call); fd != nil && fd.Body != nil &&
			callsRecoverDirectly(fd.Body) {
			return true
		}
	}
	return false
}

// callsRecoverDirectly reports whether body calls the recover builtin in
// its own frame. Nested function literals do not count: recover() only
// stops a panic when called directly by a deferred function, so a
// recover buried one closure deeper is a no-op that must not satisfy
// the check.
func callsRecoverDirectly(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" && len(call.Args) == 0 {
			found = true
			return false
		}
		return true
	})
	return found
}

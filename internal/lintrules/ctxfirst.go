package lintrules

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFirst enforces the context-first API convention: context.Context is
// always the first parameter of a function that takes one, and fresh root
// contexts (context.Background/TODO) are never minted inside internal/
// packages — callers thread their context down.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context must be the first parameter; no context.Background/TODO inside internal/",
	Run:  runCtxFirst,
}

var ctxRootFuncs = map[string]bool{"Background": true, "TODO": true}

func runCtxFirst(pass *Pass) {
	info := pass.Pkg.Info
	// The parameter-order check applies everywhere in the module, the
	// root-context check inside internal/ only.
	internal := strings.HasPrefix(pass.Pkg.PkgPath, internalPfx)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxPosition(pass, n.Type)
			case *ast.FuncLit:
				checkCtxPosition(pass, n.Type)
			case *ast.SelectorExpr:
				if name := usedPkgObject(info, n.Sel, "context", ctxRootFuncs); internal && name != "" {
					pass.Reportf(n.Pos(),
						"context.%s minted inside internal/: thread the caller's context", name)
				}
			}
			return true
		})
	}
}

// checkCtxPosition reports any context.Context parameter that is not the
// first parameter of its signature.
func checkCtxPosition(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.Pkg.Info, field.Type) && idx > 0 {
			pass.Reportf(field.Type.Pos(), "context.Context must be the first parameter")
		}
		idx += n
	}
}

// isContextType reports whether the expression denotes context.Context.
func isContextType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

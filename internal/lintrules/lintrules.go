// Package lintrules is fedlint's analyzer suite: repo-specific static
// analysis that mechanically enforces the federation's invariants.
//
// Four PRs in, the codebase runs on conventions no general-purpose tool
// checks: deterministic virtual time via simlat (the paper's E1–E12
// measurements are only reproducible because latency is simulated),
// context-first APIs, the resil typed error taxonomy, span begin/end
// discipline in obs, and a strict layer DAG. Each analyzer encodes one of
// those invariants over type-checked ASTs; the cmd/fedlint driver loads the
// module with a stdlib-only loader (go/parser + go/types with the source
// importer — the go.mod stays dependency-free) and fails CI on any
// diagnostic.
//
// A finding can be silenced in place with
//
//	//fedlint:ignore <rule> <reason>
//
// on the flagged line or the line above it. The reason is mandatory: a
// suppression without one is itself a diagnostic.
package lintrules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check, in the style of
// golang.org/x/tools/go/analysis but over this package's loader.
type Analyzer struct {
	// Name is the rule name used in diagnostics and suppression comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings on the pass.
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// AllPkgs is every package of the load, for cross-package rules.
	AllPkgs []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:     p.Analyzer.Name,
		Position: p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	Rule     string
	Position token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Position.Filename, d.Position.Line, d.Position.Column, d.Message, d.Rule)
}

// Package is one loaded, type-checked, non-test package of the module.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		VirtualClock,
		CtxFirst,
		ErrTaxonomy,
		SpanEnd,
		Layering,
		MetricName,
		EventKind,
		LockHeld,
		LockOrder,
		GoLeak,
		CtxFlow,
	}
}

// AnalyzerNames returns the rule names of the suite, sorted.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// isCall reports whether the expression id is used as the function being
// called (the Fun of a CallExpr) according to the call set.
func isCall(calls map[ast.Expr]bool, e ast.Expr) bool { return calls[e] }

// callFuns indexes every CallExpr.Fun in the files, so analyzers can tell
// a call to time.Now from a reference to it as a value.
func callFuns(files []*ast.File) map[ast.Expr]bool {
	set := make(map[ast.Expr]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				set[call.Fun] = true
			}
			return true
		})
	}
	return set
}

// usedPkgObject resolves the used identifier to a function (or variable)
// object declared at package level in pkgPath with one of the names.
// Returns "" when it is not one of them, else the matched name.
func usedPkgObject(info *types.Info, id *ast.Ident, pkgPath string, names map[string]bool) string {
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return ""
	}
	if !names[obj.Name()] {
		return ""
	}
	return obj.Name()
}

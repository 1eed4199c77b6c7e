package plan

import (
	"fmt"
	"strings"

	"fedwf/internal/exec"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// compileExpr compiles an AST expression against the current scope; column
// indexes are absolute positions in the accumulated FROM-chain row.
func (c *compiler) compileExpr(e sqlparser.Expr) (exec.Expr, error) {
	return c.compileExprShifted(e, 0)
}

// compileExprShifted compiles with column indexes shifted left by offset;
// the hash-join right side evaluates keys against right-only rows, whose
// columns start at `offset` in the global scope.
func (c *compiler) compileExprShifted(e sqlparser.Expr, offset int) (exec.Expr, error) {
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return exec.Const{V: ex.Val}, nil

	case *sqlparser.ColumnRef:
		idx, err := c.resolveColumn(ex)
		if err != nil {
			return nil, err
		}
		if idx < 0 { // parameter reference
			v, ok := c.lookupParam(ex)
			if !ok {
				return nil, fmt.Errorf("plan: unknown column or parameter %s", ex.String())
			}
			return exec.Const{V: v}, nil
		}
		if idx-offset < 0 {
			return nil, fmt.Errorf("plan: column %s not available on this side of the join", ex.String())
		}
		return exec.Col{Idx: idx - offset, Name: ex.Name}, nil

	case *sqlparser.UnaryExpr:
		x, err := c.compileExprShifted(ex.X, offset)
		if err != nil {
			return nil, err
		}
		return exec.Unary{Op: ex.Op, X: x}, nil

	case *sqlparser.BinaryExpr:
		l, err := c.compileExprShifted(ex.L, offset)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExprShifted(ex.R, offset)
		if err != nil {
			return nil, err
		}
		return exec.Bin{Op: ex.Op, L: l, R: r}, nil

	case *sqlparser.IsNull:
		x, err := c.compileExprShifted(ex.X, offset)
		if err != nil {
			return nil, err
		}
		return exec.IsNull{X: x, Not: ex.Not}, nil

	case *sqlparser.Between:
		x, err := c.compileExprShifted(ex.X, offset)
		if err != nil {
			return nil, err
		}
		lo, err := c.compileExprShifted(ex.Lo, offset)
		if err != nil {
			return nil, err
		}
		hi, err := c.compileExprShifted(ex.Hi, offset)
		if err != nil {
			return nil, err
		}
		return exec.Between{X: x, Lo: lo, Hi: hi, Not: ex.Not}, nil

	case *sqlparser.InList:
		x, err := c.compileExprShifted(ex.X, offset)
		if err != nil {
			return nil, err
		}
		list := make([]exec.Expr, len(ex.List))
		for i, it := range ex.List {
			le, err := c.compileExprShifted(it, offset)
			if err != nil {
				return nil, err
			}
			list[i] = le
		}
		return exec.In{X: x, List: list, Not: ex.Not}, nil

	case *sqlparser.Like:
		x, err := c.compileExprShifted(ex.X, offset)
		if err != nil {
			return nil, err
		}
		p, err := c.compileExprShifted(ex.Pattern, offset)
		if err != nil {
			return nil, err
		}
		return exec.Like{X: x, Pattern: p, Not: ex.Not}, nil

	case *sqlparser.CastExpr:
		x, err := c.compileExprShifted(ex.X, offset)
		if err != nil {
			return nil, err
		}
		return exec.Cast{X: x, Type: ex.Type}, nil

	case *sqlparser.CaseExpr:
		out := exec.Case{}
		for _, w := range ex.Whens {
			cond, err := c.compileExprShifted(w.Cond, offset)
			if err != nil {
				return nil, err
			}
			res, err := c.compileExprShifted(w.Result, offset)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, struct{ Cond, Result exec.Expr }{cond, res})
		}
		if ex.Else != nil {
			el, err := c.compileExprShifted(ex.Else, offset)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil

	case *sqlparser.FuncCall:
		if exec.IsAggregateName(ex.Name) {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", strings.ToUpper(ex.Name))
		}
		fn, err := exec.LookupScalar(ex.Name, len(ex.Args))
		if err != nil {
			return nil, err
		}
		args := make([]exec.Expr, len(ex.Args))
		for i, a := range ex.Args {
			ae, err := c.compileExprShifted(a, offset)
			if err != nil {
				return nil, err
			}
			args[i] = ae
		}
		return exec.ScalarCall{Name: strings.ToUpper(ex.Name), Fn: fn, Args: args}, nil

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// resolveColumn returns the scope index of a column reference, or -1 when
// the reference is not a scope column (caller then tries parameters).
func (c *compiler) resolveColumn(ref *sqlparser.ColumnRef) (int, error) {
	if ref.Qualifier != "" {
		for i, col := range c.cols {
			if strings.EqualFold(col.corr, ref.Qualifier) && strings.EqualFold(col.name, ref.Name) {
				return i, nil
			}
		}
		// Qualifier may name the enclosing SQL function (parameter ref).
		if _, ok := c.lookupParam(ref); ok {
			return -1, nil
		}
		return 0, fmt.Errorf("plan: unknown column %s", ref.String())
	}
	found := -1
	for i, col := range c.cols {
		if strings.EqualFold(col.name, ref.Name) {
			if found >= 0 {
				return 0, fmt.Errorf("plan: ambiguous column %s", ref.Name)
			}
			found = i
		}
	}
	if found >= 0 {
		return found, nil
	}
	if _, ok := c.lookupParam(ref); ok {
		return -1, nil
	}
	return 0, fmt.Errorf("plan: unknown column %s", ref.String())
}

func (c *compiler) lookupParam(ref *sqlparser.ColumnRef) (types.Value, bool) {
	if c.params == nil {
		return types.Null, false
	}
	if ref.Qualifier == "" {
		return types.LookupFold(c.params, ref.Name)
	}
	return types.LookupFold(c.params, ref.Qualifier+"."+ref.Name)
}

// ------------------------------------------------------------- analysis

// splitConjuncts flattens a predicate into AND-connected conjuncts.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// walkRefs visits every column reference of an expression.
func walkRefs(e sqlparser.Expr, visit func(*sqlparser.ColumnRef)) {
	switch ex := e.(type) {
	case nil:
	case *sqlparser.Literal:
	case *sqlparser.ColumnRef:
		visit(ex)
	case *sqlparser.UnaryExpr:
		walkRefs(ex.X, visit)
	case *sqlparser.BinaryExpr:
		walkRefs(ex.L, visit)
		walkRefs(ex.R, visit)
	case *sqlparser.IsNull:
		walkRefs(ex.X, visit)
	case *sqlparser.Between:
		walkRefs(ex.X, visit)
		walkRefs(ex.Lo, visit)
		walkRefs(ex.Hi, visit)
	case *sqlparser.InList:
		walkRefs(ex.X, visit)
		for _, it := range ex.List {
			walkRefs(it, visit)
		}
	case *sqlparser.Like:
		walkRefs(ex.X, visit)
		walkRefs(ex.Pattern, visit)
	case *sqlparser.CastExpr:
		walkRefs(ex.X, visit)
	case *sqlparser.CaseExpr:
		for _, w := range ex.Whens {
			walkRefs(w.Cond, visit)
			walkRefs(w.Result, visit)
		}
		walkRefs(ex.Else, visit)
	case *sqlparser.FuncCall:
		for _, a := range ex.Args {
			walkRefs(a, visit)
		}
	}
}

// scopeIndexOf mirrors resolveColumn without error reporting: it returns
// the index of a reference in the given scope, or -1.
func scopeIndexOf(ref *sqlparser.ColumnRef, cols []scopeCol) int {
	if ref.Qualifier != "" {
		for i, col := range cols {
			if strings.EqualFold(col.corr, ref.Qualifier) && strings.EqualFold(col.name, ref.Name) {
				return i
			}
		}
		return -1
	}
	found := -1
	for i, col := range cols {
		if strings.EqualFold(col.name, ref.Name) {
			if found >= 0 {
				return -1 // ambiguous; let compileExpr report it
			}
			found = i
		}
	}
	return found
}

// referencesScope reports whether the expression references any column of
// the given scope (as opposed to parameters and literals only).
func referencesScope(e sqlparser.Expr, cols []scopeCol) bool {
	out := false
	walkRefs(e, func(ref *sqlparser.ColumnRef) {
		if scopeIndexOf(ref, cols) >= 0 {
			out = true
		}
	})
	return out
}

// refsResolvable reports whether every column reference of e resolves
// within the first `width` scope columns (parameter references always
// resolve).
func (c *compiler) refsResolvable(e sqlparser.Expr, width int) bool {
	ok := true
	walkRefs(e, func(ref *sqlparser.ColumnRef) {
		idx := scopeIndexOf(ref, c.cols[:width])
		if idx < 0 {
			if _, isParam := c.lookupParam(ref); !isParam {
				ok = false
			}
		}
	})
	return ok
}

// equiKey decomposes a conjunct of the form L = R where one side
// references only columns left of leftWidth and the other only columns at
// or right of it. It returns (leftSide, rightSide) ASTs.
func (c *compiler) equiKey(e sqlparser.Expr, leftWidth int) (sqlparser.Expr, sqlparser.Expr, bool) {
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	side := func(x sqlparser.Expr) (left, right, any bool) {
		walkRefs(x, func(ref *sqlparser.ColumnRef) {
			idx := scopeIndexOf(ref, c.cols)
			if idx < 0 {
				return // parameter/unknown: neutral
			}
			any = true
			if idx < leftWidth {
				left = true
			} else {
				right = true
			}
		})
		return
	}
	lLeft, lRight, lAny := side(b.L)
	rLeft, rRight, rAny := side(b.R)
	switch {
	case lAny && rAny && lLeft && !lRight && rRight && !rLeft:
		return b.L, b.R, true
	case lAny && rAny && lRight && !lLeft && rLeft && !rRight:
		return b.R, b.L, true
	default:
		return nil, nil, false
	}
}

// selectHasAggregates reports whether any select item or the HAVING clause
// contains an aggregate function call.
func selectHasAggregates(sel *sqlparser.Select) bool {
	found := false
	var walk func(e sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		switch ex := e.(type) {
		case nil:
		case *sqlparser.FuncCall:
			if exec.IsAggregateName(ex.Name) {
				found = true
				return
			}
			for _, a := range ex.Args {
				walk(a)
			}
		case *sqlparser.UnaryExpr:
			walk(ex.X)
		case *sqlparser.BinaryExpr:
			walk(ex.L)
			walk(ex.R)
		case *sqlparser.IsNull:
			walk(ex.X)
		case *sqlparser.Between:
			walk(ex.X)
			walk(ex.Lo)
			walk(ex.Hi)
		case *sqlparser.InList:
			walk(ex.X)
			for _, it := range ex.List {
				walk(it)
			}
		case *sqlparser.Like:
			walk(ex.X)
			walk(ex.Pattern)
		case *sqlparser.CastExpr:
			walk(ex.X)
		case *sqlparser.CaseExpr:
			for _, w := range ex.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(ex.Else)
		}
	}
	for _, it := range sel.Items {
		if !it.Star {
			walk(it.Expr)
		}
	}
	walk(sel.Having)
	return found
}

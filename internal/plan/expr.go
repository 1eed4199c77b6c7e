package plan

import (
	"fmt"
	"strings"

	"fedwf/internal/exec"
	"fedwf/internal/sqlparser"
)

// compileExpr compiles an AST expression against the current scope; column
// indexes are absolute positions in the accumulated FROM-chain row.
func (c *compiler) compileExpr(e sqlparser.Expr) (exec.Expr, error) {
	return c.compile(e, 0, nil)
}

// compile is the one expression compiler. Column indexes are shifted left
// by offset: the hash-join right side evaluates keys against right-only
// rows, whose columns start at offset in the global scope. With an
// aggregate environment e is compiled over the Agg output row instead: a
// group expression or an aggregate call is a column of that row, and any
// other column reference must be a parameter.
func (c *compiler) compile(e sqlparser.Expr, offset int, env *aggEnv) (exec.Expr, error) {
	if env != nil {
		key := e.String()
		for i, g := range env.groups {
			if g.ast == key {
				return exec.Col{Idx: i, Name: g.name}, nil
			}
		}
	}
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return exec.Const{V: ex.Val}, nil

	case *sqlparser.ColumnRef:
		idx, n := -1, 0
		if env == nil {
			idx, n = lookupColumn(ex, c.cols)
		}
		switch {
		case n > 1:
			return nil, fmt.Errorf("plan: ambiguous column %s", ex.Name)
		case n == 1 && idx < offset:
			return nil, fmt.Errorf("plan: column %s not available on this side of the join", ex.String())
		case n == 1:
			return exec.Col{Idx: idx - offset, Name: ex.Name}, nil
		}
		switch i, n := lookupColumn(ex, c.params); {
		case n > 1:
			return nil, fmt.Errorf("plan: ambiguous column %s", ex.Name)
		case n == 1:
			return exec.Param{Idx: i, Name: ex.Name}, nil
		}
		if env != nil {
			return nil, fmt.Errorf("plan: column %s must appear in the GROUP BY clause or inside an aggregate", ex.String())
		}
		return nil, fmt.Errorf("plan: unknown column %s", ex.String())

	case *sqlparser.UnaryExpr:
		x, err := c.compile(ex.X, offset, env)
		if err != nil {
			return nil, err
		}
		return &exec.Unary{Op: ex.Op, X: x}, nil

	case *sqlparser.BinaryExpr:
		l, err := c.compile(ex.L, offset, env)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(ex.R, offset, env)
		if err != nil {
			return nil, err
		}
		return &exec.Bin{Op: ex.Op, L: l, R: r}, nil

	case *sqlparser.IsNull:
		x, err := c.compile(ex.X, offset, env)
		if err != nil {
			return nil, err
		}
		return exec.IsNull{X: x, Not: ex.Not}, nil

	case *sqlparser.Between:
		x, err := c.compile(ex.X, offset, env)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(ex.Lo, offset, env)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(ex.Hi, offset, env)
		if err != nil {
			return nil, err
		}
		return &exec.Between{X: x, Lo: lo, Hi: hi, Not: ex.Not}, nil

	case *sqlparser.InList:
		x, err := c.compile(ex.X, offset, env)
		if err != nil {
			return nil, err
		}
		list := make([]exec.Expr, len(ex.List))
		for i, it := range ex.List {
			if list[i], err = c.compile(it, offset, env); err != nil {
				return nil, err
			}
		}
		return &exec.In{X: x, List: list, Not: ex.Not}, nil

	case *sqlparser.Like:
		x, err := c.compile(ex.X, offset, env)
		if err != nil {
			return nil, err
		}
		p, err := c.compile(ex.Pattern, offset, env)
		if err != nil {
			return nil, err
		}
		return &exec.Like{X: x, Pattern: p, Not: ex.Not}, nil

	case *sqlparser.CastExpr:
		x, err := c.compile(ex.X, offset, env)
		if err != nil {
			return nil, err
		}
		return &exec.Cast{X: x, Type: ex.Type}, nil

	case *sqlparser.CaseExpr:
		out := &exec.Case{}
		for _, w := range ex.Whens {
			cond, err := c.compile(w.Cond, offset, env)
			if err != nil {
				return nil, err
			}
			res, err := c.compile(w.Result, offset, env)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, struct{ Cond, Result exec.Expr }{cond, res})
		}
		if ex.Else != nil {
			el, err := c.compile(ex.Else, offset, env)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil

	case *sqlparser.FuncCall:
		if exec.IsAggregateName(ex.Name) {
			if env == nil {
				return nil, fmt.Errorf("plan: aggregate %s not allowed here", strings.ToUpper(ex.Name))
			}
			i, err := env.registerAgg(ex)
			if err != nil {
				return nil, err
			}
			return exec.Col{Idx: len(env.groups) + i, Name: env.specs[i].name}, nil
		}
		fn, err := exec.LookupScalar(ex.Name, len(ex.Args))
		if err != nil {
			return nil, err
		}
		args := make([]exec.Expr, len(ex.Args))
		for i, a := range ex.Args {
			if args[i], err = c.compile(a, offset, env); err != nil {
				return nil, err
			}
		}
		return &exec.ScalarCall{Name: strings.ToUpper(ex.Name), Fn: fn, Args: args}, nil

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// lookupColumn is the one column lookup. It returns the index of the scope
// column ref names, or -1 unless exactly one matches, and the number of
// matches: an unqualified reference matches every column of its name (two
// or more are ambiguous), a qualified one the first column of that name
// its correlation exposes.
func lookupColumn(ref *sqlparser.ColumnRef, cols []scopeCol) (idx, n int) {
	idx = -1
	for i, col := range cols {
		if !strings.EqualFold(col.name, ref.Name) {
			continue
		}
		if ref.Qualifier == "" {
			idx, n = i, n+1
		} else if strings.EqualFold(col.corr, ref.Qualifier) {
			return i, 1
		}
	}
	if n > 1 {
		return -1, n
	}
	return idx, n
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

// walkChildren is the one structural walk: it visits the direct
// sub-expressions of e.
func walkChildren(e sqlparser.Expr, visit func(sqlparser.Expr)) {
	switch ex := e.(type) {
	case *sqlparser.UnaryExpr:
		visit(ex.X)
	case *sqlparser.BinaryExpr:
		visit(ex.L)
		visit(ex.R)
	case *sqlparser.IsNull:
		visit(ex.X)
	case *sqlparser.Between:
		visit(ex.X)
		visit(ex.Lo)
		visit(ex.Hi)
	case *sqlparser.InList:
		visit(ex.X)
		for _, it := range ex.List {
			visit(it)
		}
	case *sqlparser.Like:
		visit(ex.X)
		visit(ex.Pattern)
	case *sqlparser.CastExpr:
		visit(ex.X)
	case *sqlparser.CaseExpr:
		for _, w := range ex.Whens {
			visit(w.Cond)
			visit(w.Result)
		}
		if ex.Else != nil {
			visit(ex.Else)
		}
	case *sqlparser.FuncCall:
		for _, a := range ex.Args {
			visit(a)
		}
	}
}

// walkRefs visits every column reference of an expression.
func walkRefs(e sqlparser.Expr, visit func(*sqlparser.ColumnRef)) {
	if ref, ok := e.(*sqlparser.ColumnRef); ok {
		visit(ref)
		return
	}
	walkChildren(e, func(child sqlparser.Expr) { walkRefs(child, visit) })
}

// containsAggregate reports whether e contains an aggregate function call.
func containsAggregate(e sqlparser.Expr) bool {
	if call, ok := e.(*sqlparser.FuncCall); ok && exec.IsAggregateName(call.Name) {
		return true
	}
	found := false
	walkChildren(e, func(child sqlparser.Expr) { found = found || containsAggregate(child) })
	return found
}

// referencesScope reports whether the expression references any column of
// the given scope (as opposed to parameters and literals only).
func referencesScope(e sqlparser.Expr, cols []scopeCol) bool {
	out := false
	walkRefs(e, func(ref *sqlparser.ColumnRef) {
		if idx, _ := lookupColumn(ref, cols); idx >= 0 {
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
		if idx, _ := lookupColumn(ref, c.cols[:width]); idx < 0 {
			if i, _ := lookupColumn(ref, c.params); i < 0 {
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
			idx, _ := lookupColumn(ref, c.cols)
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
	for _, it := range sel.Items {
		if !it.Star && containsAggregate(it.Expr) {
			return true
		}
	}
	return containsAggregate(sel.Having)
}

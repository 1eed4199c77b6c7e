// Package exec implements the FDBS's Volcano-style query executor:
// compiled scalar expressions, iterators for scans, lateral application
// (the mechanism behind the paper's dependency-ordered UDTF execution),
// joins, aggregation, sorting, and the glue to table functions.
package exec

import (
	"fmt"
	"strings"

	"fedwf/internal/types"
)

// Expr is a compiled scalar expression evaluated against one row and the
// bound parameter row of the plan it belongs to (nil for a plan that
// declares no parameters, Ctx.Params). Column and parameter positions were
// resolved at plan time, so evaluation needs no catalog.
type Expr interface {
	Eval(row, params types.Row) (types.Value, error)
	String() string
}

// Const is a literal value.
type Const struct{ V types.Value }

// Eval implements Expr.
func (c Const) Eval(_, _ types.Row) (types.Value, error) { return c.V, nil }

func (c Const) String() string { return c.V.String() }

// Col reads a column by resolved position; Name is retained for display.
type Col struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (c Col) Eval(row, _ types.Row) (types.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return types.Null, fmt.Errorf("exec: column %s (#%d) out of range for row of width %d", c.Name, c.Idx, len(row))
	}
	return row[c.Idx], nil
}

func (c Col) String() string { return fmt.Sprintf("%s#%d", c.Name, c.Idx) }

// Param reads a column of the bound parameter row by resolved position: a
// SQL function's argument, or a column an earlier step of a Go integration
// UDTF answered. Name is retained for display.
type Param struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (p Param) Eval(_, params types.Row) (types.Value, error) {
	if p.Idx < 0 || p.Idx >= len(params) {
		return types.Null, fmt.Errorf("exec: parameter %s (#%d) out of range for a bound row of width %d", p.Name, p.Idx, len(params))
	}
	return params[p.Idx], nil
}

func (p Param) String() string { return fmt.Sprintf(":%s#%d", p.Name, p.Idx) }

// Unary applies NOT or unary minus.
type Unary struct {
	Op string // "NOT" | "-"
	X  Expr
}

// Eval implements Expr.
func (u *Unary) Eval(row, params types.Row) (types.Value, error) {
	v, err := u.X.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	switch u.Op {
	case "-":
		return types.Neg(v)
	case "NOT":
		if v.IsNull() {
			return types.Null, nil
		}
		b, err := v.AsBool()
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(!b), nil
	default:
		return types.Null, fmt.Errorf("exec: unknown unary operator %q", u.Op)
	}
}

func (u *Unary) String() string { return "(" + u.Op + " " + u.X.String() + ")" }

// Bin applies an infix operator with SQL three-valued logic for booleans
// and NULL propagation for arithmetic and comparisons.
type Bin struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (b *Bin) Eval(row, params types.Row) (types.Value, error) {
	switch b.Op {
	case "AND", "OR":
		return b.evalLogical(row, params)
	}
	l, err := b.L.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	r, err := b.R.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	switch b.Op {
	case "+":
		return types.Add(l, r)
	case "-":
		return types.Sub(l, r)
	case "*":
		return types.Mul(l, r)
	case "/":
		return types.Div(l, r)
	case "%":
		return types.Mod(l, r)
	case "||":
		return types.Concat(l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := types.Compare(l, r)
		if err == types.ErrNullCompare {
			return types.Null, nil
		}
		if err != nil {
			return types.Null, err
		}
		var out bool
		switch b.Op {
		case "=":
			out = c == 0
		case "<>":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return types.NewBool(out), nil
	default:
		return types.Null, fmt.Errorf("exec: unknown operator %q", b.Op)
	}
}

// evalLogical implements Kleene three-valued AND/OR with short circuits.
func (b *Bin) evalLogical(row, params types.Row) (types.Value, error) {
	l, err := b.L.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	lb, lnull := false, l.IsNull()
	if !lnull {
		if lb, err = l.AsBool(); err != nil {
			return types.Null, err
		}
	}
	if b.Op == "AND" && !lnull && !lb {
		return types.NewBool(false), nil
	}
	if b.Op == "OR" && !lnull && lb {
		return types.NewBool(true), nil
	}
	r, err := b.R.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	rb, rnull := false, r.IsNull()
	if !rnull {
		if rb, err = r.AsBool(); err != nil {
			return types.Null, err
		}
	}
	switch b.Op {
	case "AND":
		switch {
		case !rnull && !rb:
			return types.NewBool(false), nil
		case lnull || rnull:
			return types.Null, nil
		default:
			return types.NewBool(true), nil
		}
	default: // OR
		switch {
		case !rnull && rb:
			return types.NewBool(true), nil
		case lnull || rnull:
			return types.Null, nil
		default:
			return types.NewBool(false), nil
		}
	}
}

func (b *Bin) String() string { return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")" }

// Cast converts to a target type.
type Cast struct {
	X    Expr
	Type types.Type
}

// Eval implements Expr.
func (c *Cast) Eval(row, params types.Row) (types.Value, error) {
	v, err := c.X.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	return types.Cast(v, c.Type)
}

func (c *Cast) String() string { return "CAST(" + c.X.String() + " AS " + c.Type.String() + ")" }

// IsNull tests for SQL NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Eval implements Expr.
func (i IsNull) Eval(row, params types.Row) (types.Value, error) {
	v, err := i.X.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != i.Not), nil
}

func (i IsNull) String() string {
	if i.Not {
		return "(" + i.X.String() + " IS NOT NULL)"
	}
	return "(" + i.X.String() + " IS NULL)"
}

// Between tests lo <= x <= hi with NULL propagation.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// Eval implements Expr.
func (b *Between) Eval(row, params types.Row) (types.Value, error) {
	x, err := b.X.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	lo, err := b.Lo.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	hi, err := b.Hi.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	c1, err1 := types.Compare(x, lo)
	c2, err2 := types.Compare(x, hi)
	if err1 == types.ErrNullCompare || err2 == types.ErrNullCompare {
		return types.Null, nil
	}
	if err1 != nil {
		return types.Null, err1
	}
	if err2 != nil {
		return types.Null, err2
	}
	in := c1 >= 0 && c2 <= 0
	return types.NewBool(in != b.Not), nil
}

func (b *Between) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return "(" + b.X.String() + " " + not + "BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// In tests membership in an expression list, with SQL NULL semantics:
// if no element matches but some comparison was NULL, the result is NULL.
type In struct {
	X    Expr
	List []Expr
	Not  bool
}

// Eval implements Expr.
func (i *In) Eval(row, params types.Row) (types.Value, error) {
	x, err := i.X.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	sawNull := x.IsNull()
	for _, e := range i.List {
		v, err := e.Eval(row, params)
		if err != nil {
			return types.Null, err
		}
		c, err := types.Compare(x, v)
		if err == types.ErrNullCompare {
			sawNull = true
			continue
		}
		if err != nil {
			return types.Null, err
		}
		if c == 0 {
			return types.NewBool(!i.Not), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(i.Not), nil
}

func (i *In) String() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.String()
	}
	not := ""
	if i.Not {
		not = "NOT "
	}
	return "(" + i.X.String() + " " + not + "IN (" + strings.Join(parts, ", ") + "))"
}

// Like matches SQL patterns with % (any run) and _ (any single byte).
type Like struct {
	X, Pattern Expr
	Not        bool
}

// Eval implements Expr.
func (l *Like) Eval(row, params types.Row) (types.Value, error) {
	x, err := l.X.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	p, err := l.Pattern.Eval(row, params)
	if err != nil {
		return types.Null, err
	}
	if x.IsNull() || p.IsNull() {
		return types.Null, nil
	}
	xs, err := x.AsString()
	if err != nil {
		return types.Null, err
	}
	ps, err := p.AsString()
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(likeMatch(xs, ps) != l.Not), nil
}

func (l *Like) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return "(" + l.X.String() + " " + not + "LIKE " + l.Pattern.String() + ")"
}

// likeMatch implements %/_ globbing with backtracking on %.
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			mark++
			si = mark
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Case is a searched CASE expression.
type Case struct {
	Whens []struct {
		Cond, Result Expr
	}
	Else Expr // may be nil -> NULL
}

// Eval implements Expr.
func (c *Case) Eval(row, params types.Row) (types.Value, error) {
	for _, w := range c.Whens {
		v, err := w.Cond.Eval(row, params)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			continue
		}
		b, err := v.AsBool()
		if err != nil {
			return types.Null, err
		}
		if b {
			return w.Result.Eval(row, params)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row, params)
	}
	return types.Null, nil
}

func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// ScalarCall applies a built-in scalar function.
type ScalarCall struct {
	Name string
	Fn   ScalarFunc
	Args []Expr
}

// Eval implements Expr.
func (s *ScalarCall) Eval(row, params types.Row) (types.Value, error) {
	args := make([]types.Value, len(s.Args))
	for i, a := range s.Args {
		v, err := a.Eval(row, params)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	return s.Fn(args)
}

func (s *ScalarCall) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Truthy maps a predicate result to a match decision: NULL is not a match.
func Truthy(v types.Value) (bool, error) {
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

// holds evaluates pred over row and the bound parameter row and reports
// whether the row matches.
func holds(pred Expr, row, params types.Row) (bool, error) {
	v, err := pred.Eval(row, params)
	if err != nil {
		return false, err
	}
	return Truthy(v)
}

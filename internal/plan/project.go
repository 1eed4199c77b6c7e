package plan

import (
	"fmt"
	"strings"

	"fedwf/internal/exec"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// compileProjection plans the non-aggregating tail of a query: projection,
// DISTINCT, ORDER BY (with hidden sort columns when the key is not part of
// the output), and the final trim.
func (c *compiler) compileProjection(op exec.Operator, sel *sqlparser.Select) (exec.Operator, error) {
	var exprs []exec.Expr
	var schema types.Schema
	for _, item := range sel.Items {
		switch {
		case item.Star && item.Qualifier == "":
			for i, col := range c.cols {
				exprs = append(exprs, exec.Col{Idx: i, Name: col.name})
				schema = append(schema, types.Column{Name: col.name, Type: col.typ})
			}
			if len(c.cols) == 0 {
				return nil, fmt.Errorf("plan: SELECT * requires a FROM clause")
			}
		case item.Star:
			found := false
			for i, col := range c.cols {
				if strings.EqualFold(col.corr, item.Qualifier) {
					exprs = append(exprs, exec.Col{Idx: i, Name: col.name})
					schema = append(schema, types.Column{Name: col.name, Type: col.typ})
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("plan: unknown correlation %s in %s.*", item.Qualifier, item.Qualifier)
			}
		default:
			e, err := c.compileExpr(item.Expr)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			schema = append(schema, types.Column{
				Name: outputName(item),
				Type: c.inferType(item.Expr),
			})
		}
	}
	resolveExtra := func(e sqlparser.Expr) (exec.Expr, error) { return c.compileExpr(e) }
	return c.finishPipeline(op, exprs, schema, sel, resolveExtra)
}

// finishPipeline applies Project (+hidden ORDER BY columns), DISTINCT,
// Sort, and the trim projection. resolveExtra compiles an ORDER BY key
// against the pre-projection row for hidden columns.
func (c *compiler) finishPipeline(child exec.Operator, exprs []exec.Expr, schema types.Schema, sel *sqlparser.Select, resolveExtra func(sqlparser.Expr) (exec.Expr, error)) (exec.Operator, error) {
	visible := len(schema)
	var keys []exec.SortKey
	for _, o := range sel.OrderBy {
		// 1. ORDER BY <position>
		if lit, ok := o.Expr.(*sqlparser.Literal); ok && lit.Val.Kind() == types.KindInt {
			pos := lit.Val.Int()
			if pos < 1 || pos > int64(visible) {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			keys = append(keys, exec.SortKey{Expr: exec.Col{Idx: int(pos - 1), Name: schema[pos-1].Name}, Desc: o.Desc})
			continue
		}
		// 2. ORDER BY <output column name>
		if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok && ref.Qualifier == "" {
			if i := schema[:visible].ColumnIndex(ref.Name); i >= 0 {
				keys = append(keys, exec.SortKey{Expr: exec.Col{Idx: i, Name: schema[i].Name}, Desc: o.Desc})
				continue
			}
		}
		// 3. Arbitrary expression over the pre-projection row: hidden column.
		if sel.Distinct {
			return nil, fmt.Errorf("plan: ORDER BY %s must appear in the select list of a DISTINCT query", o.Expr.String())
		}
		e, err := resolveExtra(o.Expr)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		schema = append(schema, types.Column{Name: fmt.Sprintf("$sort%d", len(schema)-visible), Type: c.inferType(o.Expr)})
		keys = append(keys, exec.SortKey{Expr: exec.Col{Idx: len(schema) - 1, Name: schema[len(schema)-1].Name}, Desc: o.Desc})
	}

	var out exec.Operator = &exec.Project{Child: child, Exprs: exprs, Sch: schema}
	if sel.Distinct {
		out = &exec.Distinct{Child: out}
	}
	if len(keys) > 0 {
		out = &exec.Sort{Child: out, Keys: keys}
	}
	if len(schema) > visible {
		trimExprs := make([]exec.Expr, visible)
		for i := 0; i < visible; i++ {
			trimExprs[i] = exec.Col{Idx: i, Name: schema[i].Name}
		}
		out = &exec.Project{Child: out, Exprs: trimExprs, Sch: schema[:visible].Clone()}
	}
	return out, nil
}

// ----------------------------------------------------------- aggregation

// compileAggregation plans GROUP BY / aggregate queries: the Agg operator
// computes group keys and aggregates; HAVING, the select list, and ORDER
// BY are rewritten over the Agg output.
func (c *compiler) compileAggregation(op exec.Operator, sel *sqlparser.Select) (exec.Operator, error) {
	env := &aggEnv{c: c}
	for _, g := range sel.GroupBy {
		e, err := c.compileExpr(g)
		if err != nil {
			return nil, err
		}
		name := g.String()
		if ref, ok := g.(*sqlparser.ColumnRef); ok {
			name = ref.Name
		}
		env.groups = append(env.groups, aggGroup{ast: g.String(), name: name, typ: c.inferType(g)})
		env.groupExprs = append(env.groupExprs, e)
	}
	// Register every aggregate call appearing anywhere in the query.
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		if err := env.collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if err := env.collect(sel.Having); err != nil {
		return nil, err
	}
	for _, o := range sel.OrderBy {
		if err := env.collect(o.Expr); err != nil {
			return nil, err
		}
	}

	aggSchema := make(types.Schema, 0, len(env.groups)+len(env.specs))
	for _, g := range env.groups {
		aggSchema = append(aggSchema, types.Column{Name: g.name, Type: g.typ})
	}
	for _, s := range env.specs {
		aggSchema = append(aggSchema, types.Column{Name: s.name, Type: s.typ})
	}
	markTransient(op)
	var out exec.Operator = &exec.Agg{Child: op, Groups: env.groupExprs, Aggs: env.specList, Sch: aggSchema}

	if sel.Having != nil {
		pred, err := env.rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
		out = &exec.Filter{Child: out, Pred: pred}
	}

	var exprs []exec.Expr
	var schema types.Schema
	for _, item := range sel.Items {
		e, err := env.rewrite(item.Expr)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		schema = append(schema, types.Column{Name: outputName(item), Type: c.inferType(item.Expr)})
	}
	resolveExtra := func(e sqlparser.Expr) (exec.Expr, error) { return env.rewrite(e) }
	return c.finishPipeline(out, exprs, schema, sel, resolveExtra)
}

// markTransient lets a HashJoin that feeds an Agg, directly or through
// Filters, reuse one output row: Filter passes each row on and keeps none,
// and Agg folds each row before it asks for the next. Every other consumer
// may keep the rows it is given, so no other join is marked.
func markTransient(op exec.Operator) {
	for {
		switch o := op.(type) {
		case *exec.Filter:
			op = o.Child
		case *exec.HashJoin:
			o.Transient = true
			return
		default:
			return
		}
	}
}

type aggGroup struct {
	ast  string
	name string
	typ  types.Type
}

type aggSpecInfo struct {
	ast  string
	name string
	typ  types.Type
}

// aggEnv is the post-aggregation name environment: group expressions and
// aggregate calls become columns of the Agg operator's output.
type aggEnv struct {
	c          *compiler
	groups     []aggGroup
	groupExprs []exec.Expr
	specs      []aggSpecInfo
	specList   []exec.AggSpec
}

// collect registers every aggregate call within e.
func (env *aggEnv) collect(e sqlparser.Expr) error {
	if e == nil {
		return nil
	}
	if call, ok := e.(*sqlparser.FuncCall); ok && exec.IsAggregateName(call.Name) {
		_, err := env.registerAgg(call)
		return err
	}
	var err error
	walkChildren(e, func(child sqlparser.Expr) {
		if cerr := env.collect(child); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

func (env *aggEnv) registerAgg(call *sqlparser.FuncCall) (int, error) {
	key := call.String()
	for i, s := range env.specs {
		if s.ast == key {
			return i, nil
		}
	}
	kind, err := exec.AggKindOf(call.Name, call.Star)
	if err != nil {
		return 0, err
	}
	spec := exec.AggSpec{Kind: kind, Distinct: call.Distinct}
	if !call.Star {
		if len(call.Args) != 1 {
			return 0, fmt.Errorf("plan: aggregate %s takes exactly one argument", strings.ToUpper(call.Name))
		}
		if containsAggregate(call.Args[0]) {
			return 0, fmt.Errorf("plan: nested aggregate in %s", key)
		}
		arg, err := env.c.compileExpr(call.Args[0])
		if err != nil {
			return 0, err
		}
		spec.Arg = arg
	}
	var typ types.Type
	switch kind {
	case exec.AggCount, exec.AggCountStar:
		typ = types.BigInt
	case exec.AggAvg:
		typ = types.Double
	default:
		if call.Star || len(call.Args) == 0 {
			typ = types.BigInt
		} else {
			typ = env.c.inferType(call.Args[0])
		}
	}
	env.specs = append(env.specs, aggSpecInfo{ast: key, name: key, typ: typ})
	env.specList = append(env.specList, spec)
	return len(env.specs) - 1, nil
}

// rewrite compiles an expression over the Agg output row: group
// expressions and aggregate calls map to columns; anything else must be
// built from them (or parameters/literals).
func (env *aggEnv) rewrite(e sqlparser.Expr) (exec.Expr, error) {
	if e == nil {
		return nil, nil
	}
	key := e.String()
	for i, g := range env.groups {
		if g.ast == key {
			return exec.Col{Idx: i, Name: g.name}, nil
		}
	}
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return exec.Const{V: ex.Val}, nil
	case *sqlparser.ColumnRef:
		// Not a group expression; allow parameter references only.
		if v, ok := env.c.lookupParam(ex); ok {
			return exec.Const{V: v}, nil
		}
		return nil, fmt.Errorf("plan: column %s must appear in the GROUP BY clause or inside an aggregate", ex.String())
	case *sqlparser.FuncCall:
		if exec.IsAggregateName(ex.Name) {
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
			ae, err := env.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = ae
		}
		return exec.ScalarCall{Name: strings.ToUpper(ex.Name), Fn: fn, Args: args}, nil
	case *sqlparser.UnaryExpr:
		x, err := env.rewrite(ex.X)
		if err != nil {
			return nil, err
		}
		return exec.Unary{Op: ex.Op, X: x}, nil
	case *sqlparser.BinaryExpr:
		l, err := env.rewrite(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := env.rewrite(ex.R)
		if err != nil {
			return nil, err
		}
		return exec.Bin{Op: ex.Op, L: l, R: r}, nil
	case *sqlparser.IsNull:
		x, err := env.rewrite(ex.X)
		if err != nil {
			return nil, err
		}
		return exec.IsNull{X: x, Not: ex.Not}, nil
	case *sqlparser.Between:
		x, err := env.rewrite(ex.X)
		if err != nil {
			return nil, err
		}
		lo, err := env.rewrite(ex.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := env.rewrite(ex.Hi)
		if err != nil {
			return nil, err
		}
		return exec.Between{X: x, Lo: lo, Hi: hi, Not: ex.Not}, nil
	case *sqlparser.InList:
		x, err := env.rewrite(ex.X)
		if err != nil {
			return nil, err
		}
		list := make([]exec.Expr, len(ex.List))
		for i, it := range ex.List {
			le, err := env.rewrite(it)
			if err != nil {
				return nil, err
			}
			list[i] = le
		}
		return exec.In{X: x, List: list, Not: ex.Not}, nil
	case *sqlparser.Like:
		x, err := env.rewrite(ex.X)
		if err != nil {
			return nil, err
		}
		p, err := env.rewrite(ex.Pattern)
		if err != nil {
			return nil, err
		}
		return exec.Like{X: x, Pattern: p, Not: ex.Not}, nil
	case *sqlparser.CastExpr:
		x, err := env.rewrite(ex.X)
		if err != nil {
			return nil, err
		}
		return exec.Cast{X: x, Type: ex.Type}, nil
	case *sqlparser.CaseExpr:
		out := exec.Case{}
		for _, w := range ex.Whens {
			cond, err := env.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			res, err := env.rewrite(w.Result)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, struct{ Cond, Result exec.Expr }{cond, res})
		}
		if ex.Else != nil {
			el, err := env.rewrite(ex.Else)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T in aggregate query", e)
	}
}

// walkChildren visits the direct sub-expressions of e.
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

func containsAggregate(e sqlparser.Expr) bool {
	if call, ok := e.(*sqlparser.FuncCall); ok && exec.IsAggregateName(call.Name) {
		return true
	}
	found := false
	walkChildren(e, func(child sqlparser.Expr) {
		if containsAggregate(child) {
			found = true
		}
	})
	return found
}

// outputName picks the display name of a select item.
func outputName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok {
		return ref.Name
	}
	return item.Expr.String()
}

// inferType performs best-effort static typing for output schemas; an
// unknown result is acceptable (values carry their own runtime types).
func (c *compiler) inferType(e sqlparser.Expr) types.Type {
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return types.TypeOf(ex.Val)
	case *sqlparser.ColumnRef:
		if idx := scopeIndexOf(ex, c.cols); idx >= 0 {
			return c.cols[idx].typ
		}
		if v, ok := c.lookupParam(ex); ok {
			return types.TypeOf(v)
		}
		return types.Type{}
	case *sqlparser.CastExpr:
		return ex.Type
	case *sqlparser.UnaryExpr:
		if ex.Op == "NOT" {
			return types.Boolean
		}
		return c.inferType(ex.X)
	case *sqlparser.BinaryExpr:
		switch ex.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return types.Boolean
		case "||":
			return types.VarChar
		default:
			l, r := c.inferType(ex.L), c.inferType(ex.R)
			if l.Base == types.DoubleType || r.Base == types.DoubleType {
				return types.Double
			}
			if l.Base.IsInteger() && r.Base.IsInteger() {
				return types.BigInt
			}
			return types.Type{}
		}
	case *sqlparser.IsNull, *sqlparser.Between, *sqlparser.InList, *sqlparser.Like:
		return types.Boolean
	case *sqlparser.CaseExpr:
		if len(ex.Whens) > 0 {
			return c.inferType(ex.Whens[0].Result)
		}
		return types.Type{}
	case *sqlparser.FuncCall:
		switch strings.ToUpper(ex.Name) {
		case "SMALLINT":
			return types.SmallInt
		case "INT", "INTEGER":
			return types.Integer
		case "BIGINT", "LENGTH", "COUNT", "MOD":
			return types.BigInt
		case "DOUBLE", "AVG", "ROUND", "FLOOR", "CEIL", "SQRT":
			return types.Double
		case "VARCHAR", "CHAR", "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM", "SUBSTR", "CONCAT":
			return types.VarChar
		case "SUM", "MIN", "MAX", "ABS", "LEAST", "GREATEST", "COALESCE", "NULLIF":
			if len(ex.Args) > 0 {
				return c.inferType(ex.Args[0])
			}
			return types.Type{}
		default:
			return types.Type{}
		}
	default:
		return types.Type{}
	}
}

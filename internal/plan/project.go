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
	return c.finishPipeline(op, exprs, schema, sel, nil)
}

// finishPipeline applies Project (+hidden ORDER BY columns), DISTINCT,
// Sort, and the trim projection. A key that is not an output column is
// compiled into a hidden column over the pre-projection row, which env,
// when not nil, says is the Agg output row.
func (c *compiler) finishPipeline(child exec.Operator, exprs []exec.Expr, schema types.Schema, sel *sqlparser.Select, env *aggEnv) (exec.Operator, error) {
	visible := len(schema)
	var keys []exec.SortKey
	for _, o := range sel.OrderBy {
		i, err := outputKey(o.Expr, schema[:visible])
		if err != nil {
			return nil, err
		}
		if i < 0 {
			if sel.Distinct {
				return nil, fmt.Errorf("plan: ORDER BY %s must appear in the select list of a DISTINCT query", o.Expr.String())
			}
			e, err := c.compile(o.Expr, 0, env)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			schema = append(schema, types.Column{Name: fmt.Sprintf("$sort%d", len(schema)-visible), Type: c.inferType(o.Expr)})
			i = len(schema) - 1
		}
		keys = append(keys, exec.SortKey{Expr: exec.Col{Idx: i, Name: schema[i].Name}, Desc: o.Desc})
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

// outputKey is the one ORDER BY key resolver: it returns the index of the
// output column a key names by position or by unqualified name, or -1 when
// the key is neither.
func outputKey(e sqlparser.Expr, schema types.Schema) (int, error) {
	switch k := e.(type) {
	case *sqlparser.Literal:
		if k.Val.Kind() == types.KindInt {
			pos := k.Val.Int()
			if pos < 1 || pos > int64(len(schema)) {
				return 0, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			return int(pos - 1), nil
		}
	case *sqlparser.ColumnRef:
		if k.Qualifier == "" {
			return schema.ColumnIndex(k.Name), nil
		}
	}
	return -1, nil
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
		env.groups = append(env.groups, aggCol{ast: g.String(), name: name, typ: c.inferType(g)})
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
		pred, err := c.compile(sel.Having, 0, env)
		if err != nil {
			return nil, err
		}
		out = &exec.Filter{Child: out, Pred: pred}
	}

	var exprs []exec.Expr
	var schema types.Schema
	for _, item := range sel.Items {
		e, err := c.compile(item.Expr, 0, env)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		schema = append(schema, types.Column{Name: outputName(item), Type: c.inferType(item.Expr)})
	}
	return c.finishPipeline(out, exprs, schema, sel, env)
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

// aggCol is one column of the Agg output row: a group expression or an
// aggregate call, known by its SQL text.
type aggCol struct {
	ast  string
	name string
	typ  types.Type
}

// aggEnv is the post-aggregation name environment: group expressions and
// aggregate calls become columns of the Agg operator's output.
type aggEnv struct {
	c          *compiler
	groups     []aggCol
	groupExprs []exec.Expr
	specs      []aggCol
	specList   []exec.AggSpec
}

// collect registers every aggregate call within e.
func (env *aggEnv) collect(e sqlparser.Expr) error {
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
	env.specs = append(env.specs, aggCol{ast: key, name: key, typ: typ})
	env.specList = append(env.specList, spec)
	return len(env.specs) - 1, nil
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
		if idx, _ := lookupColumn(ex, c.cols); idx >= 0 {
			return c.cols[idx].typ
		}
		if i, _ := lookupColumn(ex, c.params); i >= 0 {
			return c.params[i].typ
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

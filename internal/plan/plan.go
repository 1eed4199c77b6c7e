// Package plan compiles parsed SELECT statements into executable operator
// trees: name resolution (correlations, UDTF parameters, nicknames),
// lateral dependency analysis for TABLE() items, predicate pushdown
// (including pushdown into foreign servers — the FDBS's query
// decomposition), hash-join selection for independent equi-joins, and
// aggregation planning.
package plan

import (
	"fmt"
	"strings"

	"fedwf/internal/catalog"
	"fedwf/internal/exec"
	"fedwf/internal/exec/batcher"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// Options tunes the planner; the zero value gives the default behaviour.
type Options struct {
	// DisableHashJoin forces nested-loop Apply plans even for independent
	// equi-joins (the join-strategy ablation).
	DisableHashJoin bool
	// Parallelism > 1 runs every lateral join whose right side is
	// side-effect-free on that many workers; <= 1 keeps sequential plans.
	Parallelism int
	// Batch makes lateral joins over a side-effect-free FuncScan gather
	// outer rows into chunks of up to Batch.Count, each flushed as one
	// set-oriented federated call. The zero policy keeps per-row calls.
	Batch batcher.Policy
}

// lateralJoin returns the Apply of left and right over the scope built so
// far, parallel and batched where the options ask for it and the right side
// allows it: only a side-effect-free right side may run on clones or have
// its calls grouped into chunks, and only one that references the left
// (lateral) is chunked.
func (c *compiler) lateralJoin(left, right exec.Operator, lateral bool) *exec.Apply {
	a := &exec.Apply{Left: orEmptyValues(left), Right: right, Sch: c.schemaOf(0, len(c.cols))}
	if sideEffectFree(right) {
		if c.opts.Parallelism > 1 {
			a.DOP = c.opts.Parallelism
		}
		if lateral {
			a.Batch = c.opts.Batch
		}
	}
	return a
}

// CompileSelect compiles a SELECT against the catalog. params declares the
// bound row the plan runs on (exec.Ctx.Params): a reference to params[i],
// bare or by its correlation, compiles to exec.Param{Idx: i}. A scope
// column of the same name shadows a parameter. nil declares none.
func CompileSelect(cat *catalog.Catalog, sel *sqlparser.Select, params []catalog.Param) (exec.Operator, error) {
	return CompileSelectOpts(cat, sel, params, Options{})
}

// CompileSelectOpts is CompileSelect with planner options.
func CompileSelectOpts(cat *catalog.Catalog, sel *sqlparser.Select, params []catalog.Param, opts Options) (exec.Operator, error) {
	c := &compiler{cat: cat, opts: opts}
	if len(params) > 0 {
		c.params = make([]scopeCol, len(params))
		for i, p := range params {
			c.params[i] = scopeCol{corr: p.Corr, name: p.Name, typ: p.Type}
		}
	}
	return c.compileSelect(sel)
}

// ValidateView compiles a view's defining query as if the view were
// already referenced once, so every view that passes CREATE VIEW
// validation is guaranteed to stay within the expansion depth limit when
// queried.
func ValidateView(cat *catalog.Catalog, sel *sqlparser.Select, opts Options) error {
	c := &compiler{cat: cat, opts: opts, viewDepth: 1}
	_, err := c.compileSelect(sel)
	return err
}

type scopeCol struct {
	corr string // correlation name exposing this column (as written; compared case-insensitively)
	name string // column name (original case)
	typ  types.Type
}

// maxViewDepth bounds view expansion, catching (indirectly) recursive
// view definitions.
const maxViewDepth = 16

type compiler struct {
	cat       *catalog.Catalog
	params    []scopeCol // the bound row's columns
	opts      Options
	viewDepth int
	cols      []scopeCol // the accumulated FROM-chain row layout
	remotes   []*remoteRef
}

// remoteRef records a remote scan's column range so predicates local to it
// can be pushed into the remote query (federated query decomposition).
type remoteRef struct {
	scan       *exec.RemoteScan
	start, end int
}

func (c *compiler) compileSelect(sel *sqlparser.Select) (exec.Operator, error) {
	if len(sel.Unions) > 0 {
		return c.compileUnion(sel)
	}
	op, err := c.compileFrom(sel)
	if err != nil {
		return nil, err
	}
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil || selectHasAggregates(sel)
	var out exec.Operator
	if hasAgg {
		out, err = c.compileAggregation(op, sel)
	} else {
		out, err = c.compileProjection(op, sel)
	}
	if err != nil {
		return nil, err
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		out = &exec.Limit{Child: out, Count: sel.Limit, Skip: sel.Offset}
	}
	return out, nil
}

// ----------------------------------------------------------------- FROM

// pendingConjunct is a WHERE conjunct awaiting attachment as low in the
// chain as its column references allow.
type pendingConjunct struct {
	ast      sqlparser.Expr
	attached bool
}

func (c *compiler) compileFrom(sel *sqlparser.Select) (exec.Operator, error) {
	if len(sel.From) == 0 {
		var op exec.Operator = &exec.Values{Sch: types.Schema{}, Rows: []types.Row{{}}}
		if sel.Where != nil {
			pred, err := c.compileExpr(sel.Where)
			if err != nil {
				return nil, err
			}
			op = &exec.Filter{Child: op, Pred: pred}
		}
		return op, nil
	}

	conjuncts := splitConjuncts(sel.Where)
	pending := make([]*pendingConjunct, len(conjuncts))
	for i, cj := range conjuncts {
		pending[i] = &pendingConjunct{ast: cj}
	}

	// DB2 UDB v7.1 processes the FROM clause strictly left to right, so a
	// table function may only reference correlations written before it —
	// the paper flags this as "not supported in general". We lift the
	// restriction: items are topologically reordered by their lateral
	// dependencies (stable, so already-ordered clauses are untouched).
	items, err := reorderFromItems(sel.From)
	if err != nil {
		return nil, err
	}

	var chain exec.Operator
	for _, item := range items {
		var err error
		chain, err = c.addFromItem(chain, item, pending)
		if err != nil {
			return nil, err
		}
	}
	// Attach whatever is left (should have been attachable at full width;
	// unresolvable references surface as compile errors here).
	for _, p := range pending {
		if p.attached {
			continue
		}
		pred, err := c.compileExpr(p.ast)
		if err != nil {
			return nil, err
		}
		chain = &exec.Filter{Child: chain, Pred: pred}
		p.attached = true
	}
	// Conjuncts attached eagerly during the fold resolved names against a
	// prefix of the scope; re-validate them against the full FROM scope so
	// genuinely ambiguous references are rejected, as SQL requires.
	for _, p := range pending {
		if err := c.checkAmbiguity(p.ast); err != nil {
			return nil, err
		}
	}
	return chain, nil
}

// checkAmbiguity errors when an unqualified column reference matches more
// than one column of the full FROM scope.
func (c *compiler) checkAmbiguity(e sqlparser.Expr) error {
	var err error
	walkRefs(e, func(ref *sqlparser.ColumnRef) {
		if _, n := lookupColumn(ref, c.cols); n > 1 && err == nil {
			err = fmt.Errorf("plan: ambiguous column %s", ref.Name)
		}
	})
	return err
}

// addFromItem extends the chain with one FROM item, choosing between a
// lateral Apply (inner or outer) and a HashJoin, and attaching newly
// satisfied WHERE conjuncts.
func (c *compiler) addFromItem(chain exec.Operator, item sqlparser.FromItem, pending []*pendingConjunct) (exec.Operator, error) {
	switch it := item.(type) {
	case *sqlparser.JoinRef:
		left, err := c.addFromItem(chain, it.Left, pending)
		if err != nil {
			return nil, err
		}
		leftWidth := len(c.cols)
		rightOp, lateral, err := c.compileLeaf(it.Right)
		if err != nil {
			return nil, err
		}
		switch it.Type {
		case sqlparser.LeftJoin:
			// No key scan here: a WHERE conjunct on the NULL-padded side
			// must see the padded rows, so it stays above the join.
			var on exec.Expr
			if it.On != nil {
				on, err = c.compileExpr(it.On)
				if err != nil {
					return nil, err
				}
			}
			joined := c.lateralJoin(left, rightOp, lateral)
			joined.Outer, joined.On = true, on
			return c.attachReady(joined, pending)
		default:
			c.keyScan(rightOp, leftWidth, pending)
			on := it.On // nil for CROSS JOIN
			op, err := c.joinWith(left, rightOp, leftWidth, lateral, on, pending)
			if err != nil {
				return nil, err
			}
			return c.attachReady(op, pending)
		}
	default:
		leftWidth := len(c.cols)
		rightOp, lateral, err := c.compileLeaf(item)
		if err != nil {
			return nil, err
		}
		c.keyScan(rightOp, leftWidth, pending)
		if chain == nil {
			op, err := c.attachReady(rightOp, pending)
			if err != nil {
				return nil, err
			}
			return op, nil
		}
		op, err := c.joinWith(chain, rightOp, leftWidth, lateral, nil, pending)
		if err != nil {
			return nil, err
		}
		return c.attachReady(op, pending)
	}
}

// joinWith combines left and right. When the right side is independent of
// the left and an unattached equi-conjunct links them, a HashJoin is
// produced; otherwise a lateral Apply.
func (c *compiler) joinWith(left, right exec.Operator, leftWidth int, lateral bool, on sqlparser.Expr, pending []*pendingConjunct) (exec.Operator, error) {
	onConjuncts := splitConjuncts(on)
	if !lateral && !c.opts.DisableHashJoin {
		var keysL, keysR []exec.Expr
		var residual []sqlparser.Expr
		candidates := make([]*pendingConjunct, 0, len(pending)+len(onConjuncts))
		for _, p := range pending {
			if !p.attached && c.refsResolvable(p.ast, len(c.cols)) {
				candidates = append(candidates, p)
			}
		}
		for _, oc := range onConjuncts {
			candidates = append(candidates, &pendingConjunct{ast: oc})
		}
		for _, p := range candidates {
			l, r, ok := c.equiKey(p.ast, leftWidth)
			if !ok || !c.hashComparable(l, r) {
				continue
			}
			le, err := c.compileExpr(l)
			if err != nil {
				return nil, err
			}
			re, err := c.compile(r, leftWidth, nil)
			if err != nil {
				return nil, err
			}
			keysL = append(keysL, le)
			keysR = append(keysR, re)
			p.attached = true
		}
		if len(keysL) > 0 {
			op := exec.Operator(&exec.HashJoin{
				Left: orEmptyValues(left), Right: right,
				LeftKeys: keysL, RightKeys: keysR, Sch: c.schemaOf(0, len(c.cols)),
			})
			// Remaining ON conjuncts become filters above the join.
			for _, oc := range onConjuncts {
				claimed := false
				for _, p := range candidates[len(candidates)-len(onConjuncts):] {
					if p.ast == oc && p.attached {
						claimed = true
						break
					}
				}
				if !claimed {
					residual = append(residual, oc)
				}
			}
			for _, r := range residual {
				pred, err := c.compileExpr(r)
				if err != nil {
					return nil, err
				}
				op = &exec.Filter{Child: op, Pred: pred}
			}
			return op, nil
		}
	}
	apply := c.lateralJoin(left, right, lateral)
	apply.Independent = !lateral && leftWidth > 0
	var op exec.Operator = apply
	for _, oc := range onConjuncts {
		pred, err := c.compileExpr(oc)
		if err != nil {
			return nil, err
		}
		op = &exec.Filter{Child: op, Pred: pred}
	}
	return op, nil
}

// hashComparable reports whether a hash join may take l = r as a key: the
// two sides hold the same physical kind, or the type of one of them is not
// known statically. The reason is pointKey's: a hash join finds matches by
// Value.Hash, the Apply + Filter it replaces by types.Compare, and across
// kinds the two disagree — Compare raises on string-vs-number where unequal
// hashes silently match nothing, and compares INT with DOUBLE as float64,
// calling values above 2^53 equal that Hash files apart.
func (c *compiler) hashComparable(l, r sqlparser.Expr) bool {
	lk, rk := storedKind(c.inferType(l)), storedKind(c.inferType(r))
	return lk == rk || lk == types.KindNull || rk == types.KindNull
}

// attachReady wraps op with filters for every pending conjunct whose
// references are now in scope. Conjuncts local to a single remote scan are
// instead pushed into the remote query, so the foreign server filters at
// the source.
func (c *compiler) attachReady(op exec.Operator, pending []*pendingConjunct) (exec.Operator, error) {
	for _, p := range pending {
		if p.attached || !c.refsResolvable(p.ast, len(c.cols)) {
			continue
		}
		if c.pushToRemote(p.ast) {
			p.attached = true
			continue
		}
		pred, err := c.compileExpr(p.ast)
		if err != nil {
			return nil, err
		}
		op = &exec.Filter{Child: op, Pred: pred}
		p.attached = true
	}
	return op, nil
}

// keyScan is the engine's one access-path choice. When leaf scans a base
// table whose columns start at scope position start, and a pending WHERE
// conjunct pins one of its indexed columns to a literal (pointKey), the
// scan reads that index bucket instead of the table and the conjunct is
// consumed. Every other shape keeps the scan and its Filter.
func (c *compiler) keyScan(leaf exec.Operator, start int, pending []*pendingConjunct) {
	scan, ok := leaf.(*exec.TableScan)
	if !ok {
		return
	}
	for _, p := range pending {
		if p.attached {
			continue
		}
		if idx, key, ok := c.pointKey(p.ast, start, scan.Table.HasIndex); ok {
			scan.KeyCol, scan.Key = c.cols[idx].name, key
			p.attached = true
			return
		}
	}
}

// pointKey matches `col = literal` (either operand order) where col is a
// scope column at or after start that indexed reports a hash index on and
// the literal has the physical kind the column stores. Only then does an
// index lookup (Value.Hash, Value.Equal) agree with the Filter it replaces
// (types.Compare): across kinds Compare raises on string-vs-number, which
// the statement must keep reporting, and compares INT with DOUBLE as
// float64, so above 2^53 it calls values equal that Hash files in different
// buckets. NULL has no kind to match, so `col = NULL` stays UNKNOWN for
// every row.
func (c *compiler) pointKey(e sqlparser.Expr, start int, indexed func(column string) bool) (int, types.Value, bool) {
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || b.Op != "=" {
		return 0, types.Null, false
	}
	ref, isRef := b.L.(*sqlparser.ColumnRef)
	lit, isLit := b.R.(*sqlparser.Literal)
	if !isRef || !isLit {
		ref, isRef = b.R.(*sqlparser.ColumnRef)
		lit, isLit = b.L.(*sqlparser.Literal)
	}
	if !isRef || !isLit || lit.Val.IsNull() {
		return 0, types.Null, false
	}
	idx, _ := lookupColumn(ref, c.cols)
	if idx < start || lit.Val.Kind() != storedKind(c.cols[idx].typ) || !indexed(c.cols[idx].name) {
		return 0, types.Null, false
	}
	return idx, lit.Val, true
}

// storedKind is the physical kind of the non-NULL values a column of type
// t holds (storage casts every row to its schema); KindNull when unknown.
func storedKind(t types.Type) types.Kind {
	switch {
	case t.Base.IsInteger():
		return types.KindInt
	case t.Base == types.DoubleType:
		return types.KindFloat
	case t.Base == types.VarCharType:
		return types.KindString
	case t.Base == types.BooleanType:
		return types.KindBool
	default:
		return types.KindNull
	}
}

// pushToRemote ANDs the conjunct into the remote query of the single
// remote scan it references, when the expression is expressible remotely.
// It reports whether the pushdown happened.
func (c *compiler) pushToRemote(e sqlparser.Expr) bool {
	if !remotePushable(e) {
		return false
	}
	var target *remoteRef
	local := true
	walkRefs(e, func(ref *sqlparser.ColumnRef) {
		idx, _ := lookupColumn(ref, c.cols)
		if idx < 0 {
			// A parameter is a column of the bound row, which the remote
			// query cannot see, so a conjunct that reads one stays local.
			local = false
			return
		}
		var owner *remoteRef
		for _, r := range c.remotes {
			if idx >= r.start && idx < r.end {
				owner = r
				break
			}
		}
		if owner == nil {
			local = false
			return
		}
		if target == nil {
			target = owner
		} else if target != owner {
			local = false
		}
	})
	if !local || target == nil {
		return false
	}
	rewritten := stripQualifiers(e)
	if target.scan.Query.Where == nil {
		target.scan.Query.Where = rewritten
	} else {
		target.scan.Query.Where = &sqlparser.BinaryExpr{Op: "AND", L: target.scan.Query.Where, R: rewritten}
	}
	return true
}

// remotePushable reports whether an expression uses only constructs every
// foreign server supports (no scalar function calls, no CASE, no CAST).
func remotePushable(e sqlparser.Expr) bool {
	switch e.(type) {
	case *sqlparser.Literal, *sqlparser.ColumnRef, *sqlparser.UnaryExpr, *sqlparser.BinaryExpr,
		*sqlparser.IsNull, *sqlparser.Between, *sqlparser.InList, *sqlparser.Like:
	default:
		return false
	}
	ok := true
	walkChildren(e, func(child sqlparser.Expr) { ok = ok && remotePushable(child) })
	return ok
}

// stripQualifiers clones a pushable expression with correlation qualifiers
// removed: the remote query is single-table, so bare names are unambiguous.
func stripQualifiers(e sqlparser.Expr) sqlparser.Expr {
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return &sqlparser.Literal{Val: ex.Val}
	case *sqlparser.ColumnRef:
		return &sqlparser.ColumnRef{Name: ex.Name}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: ex.Op, X: stripQualifiers(ex.X)}
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: ex.Op, L: stripQualifiers(ex.L), R: stripQualifiers(ex.R)}
	case *sqlparser.IsNull:
		return &sqlparser.IsNull{X: stripQualifiers(ex.X), Not: ex.Not}
	case *sqlparser.Between:
		return &sqlparser.Between{X: stripQualifiers(ex.X), Lo: stripQualifiers(ex.Lo), Hi: stripQualifiers(ex.Hi), Not: ex.Not}
	case *sqlparser.InList:
		list := make([]sqlparser.Expr, len(ex.List))
		for i, it := range ex.List {
			list[i] = stripQualifiers(it)
		}
		return &sqlparser.InList{X: stripQualifiers(ex.X), List: list, Not: ex.Not}
	case *sqlparser.Like:
		return &sqlparser.Like{X: stripQualifiers(ex.X), Pattern: stripQualifiers(ex.Pattern), Not: ex.Not}
	default:
		return e
	}
}

// compileLeaf compiles one non-join FROM item, appends its columns to the
// scope, and reports whether the produced operator references the binding
// row (lateral).
func (c *compiler) compileLeaf(item sqlparser.FromItem) (exec.Operator, bool, error) {
	switch it := item.(type) {
	case *sqlparser.TableRef:
		corr := it.Corr()
		if err := c.checkCorrFree(corr); err != nil {
			return nil, false, err
		}
		if view := c.cat.View(it.Name); view != nil {
			// Views expand like derived tables (the paper's homogenized
			// view layer).
			if c.viewDepth >= maxViewDepth {
				return nil, false, fmt.Errorf("plan: view nesting deeper than %d (recursive view %s?)", maxViewDepth, it.Name)
			}
			sub := &compiler{cat: c.cat, params: c.params, opts: c.opts, viewDepth: c.viewDepth + 1}
			subOp, err := sub.compileSelect(view)
			if err != nil {
				return nil, false, fmt.Errorf("plan: expanding view %s: %w", it.Name, err)
			}
			sch := subOp.Schema().Clone()
			c.appendScope(corr, sch)
			return &BindReset{Child: subOp}, false, nil
		}
		if nick := c.cat.Nickname(it.Name); nick != nil {
			remote := &sqlparser.Select{
				Items: []sqlparser.SelectItem{{Star: true}},
				From:  []sqlparser.FromItem{&sqlparser.TableRef{Name: nick.Remote}},
				Limit: -1,
			}
			srv, err := c.cat.Server(nick.Server)
			if err != nil {
				return nil, false, err
			}
			start := len(c.cols)
			c.appendScope(corr, nick.Schema)
			scan := &exec.RemoteScan{Server: srv, Query: remote, Sch: nick.Schema.Clone()}
			c.remotes = append(c.remotes, &remoteRef{scan: scan, start: start, end: len(c.cols)})
			return scan, false, nil
		}
		if virt := c.cat.Virtual(it.Name); virt != nil {
			sch := virt.Sch.Clone()
			c.appendScope(corr, sch)
			return &exec.VirtualScan{Name: virt.Name, Sch: sch, Provider: virt.Provider}, false, nil
		}
		tab, err := c.cat.Table(it.Name)
		if err != nil {
			return nil, false, err
		}
		sch := tab.Schema()
		c.appendScope(corr, sch)
		return &exec.TableScan{Table: tab, Sch: sch}, false, nil

	case *sqlparser.TableFuncRef:
		corr := it.Corr()
		if err := c.checkCorrFree(corr); err != nil {
			return nil, false, err
		}
		fn, err := c.cat.Func(it.Name)
		if err != nil {
			return nil, false, err
		}
		if len(it.Args) != len(fn.Params()) {
			return nil, false, fmt.Errorf("plan: %s expects %d arguments, got %d", fn.Name(), len(fn.Params()), len(it.Args))
		}
		lateral := false
		args := make([]exec.Expr, len(it.Args))
		for i, a := range it.Args {
			if referencesScope(a, c.cols) {
				lateral = true
			}
			// Arguments are evaluated against the binding row, whose layout
			// equals the scope built so far.
			e, err := c.compileExpr(a)
			if err != nil {
				return nil, false, fmt.Errorf("plan: argument %d of %s: %w", i+1, fn.Name(), err)
			}
			args[i] = e
		}
		sch := fn.Schema().Clone()
		c.appendScope(corr, sch)
		return &exec.FuncScan{Fn: fn, Args: args, Sch: sch}, lateral, nil

	case *sqlparser.SubqueryRef:
		corr := it.Corr()
		if err := c.checkCorrFree(corr); err != nil {
			return nil, false, err
		}
		sub := &compiler{cat: c.cat, params: c.params, opts: c.opts, viewDepth: c.viewDepth}
		subOp, err := sub.compileSelect(it.Query)
		if err != nil {
			return nil, false, fmt.Errorf("plan: derived table %s: %w", it.Alias, err)
		}
		sch := subOp.Schema().Clone()
		c.appendScope(corr, sch)
		// BindReset keeps the derived table's internal column indexes
		// anchored at zero regardless of the enclosing chain's width.
		return &BindReset{Child: subOp}, false, nil

	default:
		return nil, false, fmt.Errorf("plan: unsupported FROM item %T", item)
	}
}

func (c *compiler) checkCorrFree(corr string) error {
	for _, col := range c.cols {
		if strings.EqualFold(col.corr, corr) {
			return fmt.Errorf("plan: duplicate correlation name %s", corr)
		}
	}
	return nil
}

func (c *compiler) appendScope(corr string, sch types.Schema) {
	for _, col := range sch {
		c.cols = append(c.cols, scopeCol{corr: corr, name: col.Name, typ: col.Type})
	}
}

func (c *compiler) schemaOf(from, to int) types.Schema {
	out := make(types.Schema, 0, to-from)
	for _, col := range c.cols[from:to] {
		out = append(out, types.Column{Name: col.name, Type: col.typ})
	}
	return out
}

// sideEffectFree reports whether an operator subtree may safely run
// concurrently on cloned instances: scans that only read (function calls,
// remote queries, local tables, literals) glued together by stateless
// relational operators. Anything unknown is conservatively sequential.
func sideEffectFree(op exec.Operator) bool {
	switch o := op.(type) {
	case *exec.FuncScan, *exec.RemoteScan, *exec.TableScan, *exec.Values:
		return true
	case *exec.Filter:
		return sideEffectFree(o.Child)
	case *exec.Project:
		return sideEffectFree(o.Child)
	case *exec.Limit:
		return sideEffectFree(o.Child)
	case *BindReset:
		return sideEffectFree(o.Child)
	default:
		return false
	}
}

func orEmptyValues(op exec.Operator) exec.Operator {
	if op == nil {
		return &exec.Values{Sch: types.Schema{}, Rows: []types.Row{{}}}
	}
	return op
}

// BindReset opens its child with an empty binding row, isolating derived
// tables from the enclosing chain's binding layout.
type BindReset struct{ Child exec.Operator }

// Schema implements exec.Operator.
func (b *BindReset) Schema() types.Schema { return b.Child.Schema() }

// Open implements exec.Operator.
func (b *BindReset) Open(ctx *exec.Ctx, _ types.Row) error { return b.Child.Open(ctx, nil) }

// Next implements exec.Operator.
func (b *BindReset) Next() (types.Row, error) { return b.Child.Next() }

// Close implements exec.Operator.
func (b *BindReset) Close() error { return b.Child.Close() }

// Describe implements exec.Operator.
func (b *BindReset) Describe() string { return "BindReset" }

// Children implements exec.Operator.
func (b *BindReset) Children() []exec.Operator { return []exec.Operator{b.Child} }

// Clone implements exec.Operator.
func (b *BindReset) Clone() exec.Operator { return &BindReset{Child: b.Child.Clone()} }

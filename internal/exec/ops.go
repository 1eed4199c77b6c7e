package exec

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"fedwf/internal/catalog"
	"fedwf/internal/exec/batcher"
	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/storage"
	"fedwf/internal/types"
)

// Ctx carries per-execution state through the operator tree: the request's
// cost meter, the engine's runner for nested SQL (UDTF bodies), and the
// simulated cost of composing independent result sets (the paper's "join
// with selection", which makes the UDTF architecture's independent case
// slower than its sequential case).
type Ctx struct {
	Task            *simlat.Task
	Runner          catalog.QueryRunner
	CompositionCost time.Duration

	// FuncCache, when non-nil, memoises table-function results within one
	// statement execution: a lateral scan re-invoked with identical
	// arguments reuses the previous result instead of calling the foreign
	// function again. An optimizer extension beyond the paper (which
	// defers foreign-function query optimization to future work); enable
	// it with engine.SetFunctionCache.
	FuncCache *FuncCache

	// Context carries the statement's deadline and cancellation; operators
	// gate on it per outer row via resil.Check. May be nil (no deadline).
	Context context.Context

	// Warnings collects degradation notices; nil disables collection.
	Warnings *Warnings

	// AllowDegraded permits outer lateral operators to absorb degradable
	// failures (open breaker, unreachable system) as NULL padding instead
	// of failing the statement.
	AllowDegraded bool
}

// check gates one unit of operator work on the statement deadline.
func (c *Ctx) check() error {
	if c == nil {
		return nil
	}
	return resil.Check(c.Context, c.Task)
}

// FuncCache memoises (function, arguments) -> result within one statement.
// It is a singleflight cache: concurrent invocations with identical keys —
// as issued by ParallelApply workers — coalesce into one underlying call,
// with the latecomers blocking until the in-flight call completes instead
// of stampeding the controller with duplicate federated-function calls.
type FuncCache struct {
	mu        sync.Mutex
	entries   map[string]*funcCall
	hits      int
	misses    int
	coalesced int
}

// funcCall is one materialised or in-flight invocation; done is closed
// once res/err are set.
type funcCall struct {
	done chan struct{}
	res  *types.Table
	err  error
}

// CacheStats is a point-in-time snapshot of a FuncCache's counters.
type CacheStats struct {
	// Hits counts lookups that found a completed result.
	Hits int
	// Misses counts lookups that had to invoke the function.
	Misses int
	// Coalesced counts lookups that joined an in-flight invocation.
	Coalesced int
}

// Total returns the total number of lookups.
func (s CacheStats) Total() int { return s.Hits + s.Misses + s.Coalesced }

// NewFuncCache returns an empty cache.
func NewFuncCache() *FuncCache {
	return &FuncCache{entries: make(map[string]*funcCall)}
}

// Stats reports cache hits and misses. Safe on a nil cache.
func (fc *FuncCache) Stats() (hits, misses int) {
	if fc == nil {
		return 0, 0
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.hits, fc.misses
}

// Snapshot returns all counters. Safe on a nil cache (all zero).
func (fc *FuncCache) Snapshot() CacheStats {
	if fc == nil {
		return CacheStats{}
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return CacheStats{Hits: fc.hits, Misses: fc.misses, Coalesced: fc.coalesced}
}

// key builds the lookup key. Each argument carries its physical kind as a
// tag so values of different types with identical renderings (integer 1
// vs double 1, say) occupy distinct entries.
func (fc *FuncCache) key(name string, args []types.Value) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(name))
	for _, a := range args {
		b.WriteByte('\x00')
		b.WriteByte('0' + byte(a.Kind()))
		b.WriteString(a.String())
	}
	return b.String()
}

// CacheOutcome classifies one FuncCache lookup.
type CacheOutcome int

// Lookup outcomes.
const (
	// CacheBypass means no cache was consulted.
	CacheBypass CacheOutcome = iota
	// CacheHit found a completed result.
	CacheHit
	// CacheMiss had to invoke the function.
	CacheMiss
	// CacheCoalesced joined an invocation already in flight.
	CacheCoalesced
)

// Invoke returns the cached result for (name, args), joining an in-flight
// call when one exists, and otherwise runs call and publishes its result.
// Errors are cached too: within one statement a failed invocation fails
// the statement, so retrying duplicates would only repeat the failure.
func (fc *FuncCache) Invoke(name string, args []types.Value, call func() (*types.Table, error)) (*types.Table, error) {
	res, _, err := fc.InvokeOutcome(name, args, call)
	return res, err
}

// InvokeOutcome is Invoke plus the classification of this lookup, letting
// an instrumented FuncScan keep per-operator cache counters.
func (fc *FuncCache) InvokeOutcome(name string, args []types.Value, call func() (*types.Table, error)) (*types.Table, CacheOutcome, error) {
	key := fc.key(name, args)
	fc.mu.Lock()
	if c, ok := fc.entries[key]; ok {
		outcome := CacheHit
		select {
		case <-c.done:
			fc.hits++
		default:
			fc.coalesced++
			outcome = CacheCoalesced
		}
		fc.mu.Unlock()
		<-c.done
		return c.res, outcome, c.err
	}
	c := &funcCall{done: make(chan struct{})}
	fc.entries[key] = c
	fc.misses++
	fc.mu.Unlock()
	c.res, c.err = call()
	close(c.done)
	return c.res, CacheMiss, c.err
}

// Operator is a Volcano-style iterator. Open receives the current outer
// binding row (used by lateral operands such as table-function arguments);
// Next returns io.EOF when exhausted.
type Operator interface {
	Schema() types.Schema
	Open(ctx *Ctx, bind types.Row) error
	Next() (types.Row, error)
	Close() error
	Describe() string
	Children() []Operator
	// Clone returns a fresh, closed instance of the same subplan sharing
	// the immutable plan-time fields (schemas, expressions, catalog
	// references) but none of the iteration state, so the copy can run
	// concurrently with the original. ParallelApply clones its right side
	// once per worker.
	Clone() Operator
}

// Run drains an operator into a materialised table. The root is closed on
// every path, including an Open that fails after acquiring resources
// (e.g. an Apply whose left side opened before the failure).
func Run(op Operator, ctx *Ctx) (*types.Table, error) {
	if err := op.Open(ctx, nil); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	out := types.NewTable(op.Schema().Clone())
	for {
		row, err := op.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
}

// ExplainString renders an operator tree as an indented plan.
func ExplainString(op Operator) string {
	var b strings.Builder
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(o.Describe())
		b.WriteByte('\n')
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}

// --------------------------------------------------------------- Values

// Values emits a fixed list of rows; with one empty row it is the source
// for SELECT without FROM.
type Values struct {
	Sch  types.Schema
	Rows []types.Row
	pos  int
}

// Schema implements Operator.
func (v *Values) Schema() types.Schema { return v.Sch }

// Open implements Operator.
func (v *Values) Open(*Ctx, types.Row) error { v.pos = 0; return nil }

// Next implements Operator.
func (v *Values) Next() (types.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, io.EOF
	}
	r := v.Rows[v.pos]
	v.pos++
	return r, nil
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// Describe implements Operator.
func (v *Values) Describe() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }

// Clone implements Operator.
func (v *Values) Clone() Operator { return &Values{Sch: v.Sch, Rows: v.Rows} }

// ------------------------------------------------------------ TableScan

// TableScan reads a snapshot of a base table: all of it, or, when KeyCol
// is set, the rows whose KeyCol equals Key, read through the table's hash
// index (the planner sets a key only where that equals scan + Filter).
type TableScan struct {
	Table  *storage.Table
	Sch    types.Schema
	KeyCol string
	Key    types.Value
	rows   []types.Row
	pos    int
}

// Schema implements Operator.
func (t *TableScan) Schema() types.Schema { return t.Sch }

// Open implements Operator.
func (t *TableScan) Open(*Ctx, types.Row) error {
	t.pos = 0
	if t.KeyCol == "" {
		t.rows = t.Table.Scan()
		return nil
	}
	var err error
	t.rows, err = t.Table.Lookup(t.KeyCol, t.Key)
	return err
}

// Next implements Operator.
func (t *TableScan) Next() (types.Row, error) {
	if t.pos >= len(t.rows) {
		return nil, io.EOF
	}
	r := t.rows[t.pos]
	t.pos++
	return r, nil
}

// Close implements Operator.
func (t *TableScan) Close() error { t.rows = nil; return nil }

// Describe implements Operator.
func (t *TableScan) Describe() string {
	if t.KeyCol == "" {
		return "TableScan " + t.Table.Name()
	}
	return fmt.Sprintf("IndexScan %s (%s = %s)", t.Table.Name(), t.KeyCol, t.Key)
}

// Children implements Operator.
func (t *TableScan) Children() []Operator { return nil }

// Clone implements Operator.
func (t *TableScan) Clone() Operator {
	return &TableScan{Table: t.Table, Sch: t.Sch, KeyCol: t.KeyCol, Key: t.Key}
}

// ---------------------------------------------------------- VirtualScan

// VirtualScan materializes a catalog virtual table through its provider —
// the read path of the fed_stat_* introspection relations. The provider
// runs at Open, so the scan sees one consistent snapshot per execution.
type VirtualScan struct {
	Name     string
	Sch      types.Schema
	Provider func() (*types.Table, error)
	rows     []types.Row
	pos      int
}

// Schema implements Operator.
func (v *VirtualScan) Schema() types.Schema { return v.Sch }

// Open implements Operator.
func (v *VirtualScan) Open(*Ctx, types.Row) error {
	tab, err := v.Provider()
	if err != nil {
		return fmt.Errorf("virtual table %s: %w", v.Name, err)
	}
	v.rows = tab.Rows
	v.pos = 0
	return nil
}

// Next implements Operator.
func (v *VirtualScan) Next() (types.Row, error) {
	if v.pos >= len(v.rows) {
		return nil, io.EOF
	}
	r := v.rows[v.pos]
	v.pos++
	return r, nil
}

// Close implements Operator.
func (v *VirtualScan) Close() error { v.rows = nil; return nil }

// Describe implements Operator.
func (v *VirtualScan) Describe() string { return "VirtualScan " + v.Name }

// Children implements Operator.
func (v *VirtualScan) Children() []Operator { return nil }

// Clone implements Operator.
func (v *VirtualScan) Clone() Operator {
	return &VirtualScan{Name: v.Name, Sch: v.Sch, Provider: v.Provider}
}

// ----------------------------------------------------------- RemoteScan

// RemoteScan pushes a subquery down to a foreign server through its
// wrapper and streams the materialised result: the FDBS's federated
// query decomposition.
type RemoteScan struct {
	Server catalog.ForeignServer
	Query  *sqlparser.Select
	Sch    types.Schema
	res    *types.Table
	pos    int
}

// Schema implements Operator.
func (r *RemoteScan) Schema() types.Schema { return r.Sch }

// Open implements Operator.
func (r *RemoteScan) Open(ctx *Ctx, _ types.Row) error {
	if err := ctx.check(); err != nil {
		return err
	}
	res, err := r.Server.QueryContext(ctx.Context, r.Query, ctx.Task)
	if err != nil {
		return fmt.Errorf("exec: remote scan on %s: %w", r.Server.Name(), err)
	}
	if len(res.Schema) != len(r.Sch) {
		return fmt.Errorf("exec: remote scan on %s returned %d columns, planned %d",
			r.Server.Name(), len(res.Schema), len(r.Sch))
	}
	r.res = res
	r.pos = 0
	return nil
}

// Next implements Operator.
func (r *RemoteScan) Next() (types.Row, error) {
	if r.pos >= len(r.res.Rows) {
		return nil, io.EOF
	}
	row := r.res.Rows[r.pos]
	r.pos++
	return row, nil
}

// Close implements Operator.
func (r *RemoteScan) Close() error { r.res = nil; return nil }

// Describe implements Operator.
func (r *RemoteScan) Describe() string {
	return fmt.Sprintf("RemoteScan server=%s pushdown=[%s]", r.Server.Name(), r.Query.String())
}

// Children implements Operator.
func (r *RemoteScan) Children() []Operator { return nil }

// Clone implements Operator.
func (r *RemoteScan) Clone() Operator {
	return &RemoteScan{Server: r.Server, Query: r.Query, Sch: r.Sch}
}

// ------------------------------------------------------------- FuncScan

// FuncScan invokes a table function. Its argument expressions are
// evaluated against the binding row supplied by the enclosing Apply,
// which is how the dependency order among UDTF calls materialises: an
// argument referencing an earlier correlation forces this scan to run
// once per row of that correlation.
type FuncScan struct {
	Fn   catalog.TableFunc
	Args []Expr
	Sch  types.Schema
	// Stats, when set by Instrument, receives per-operator cache
	// outcomes; clones share it.
	Stats *OpStats
	res   *types.Table
	pos   int
}

// Schema implements Operator.
func (f *FuncScan) Schema() types.Schema { return f.Sch }

// Open implements Operator.
func (f *FuncScan) Open(ctx *Ctx, bind types.Row) error {
	args := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(bind)
		if err != nil {
			return fmt.Errorf("exec: argument %d of %s: %w", i+1, f.Fn.Name(), err)
		}
		args[i] = v
	}
	if err := ctx.check(); err != nil {
		return err
	}
	sp := obs.StartSpan(ctx.Task, "exec.func", obs.Attr{Key: "fn", Value: f.Fn.Name()})
	defer sp.End(ctx.Task)
	invoke := func() (*types.Table, error) {
		return catalog.InvokeFunc(ctx.Context, f.Fn, ctx.Runner, ctx.Task, args)
	}
	var res *types.Table
	var err error
	if ctx.FuncCache != nil {
		var outcome CacheOutcome
		res, outcome, err = ctx.FuncCache.InvokeOutcome(f.Fn.Name(), args, invoke)
		if f.Stats != nil {
			switch outcome {
			case CacheHit:
				f.Stats.CacheHits.Add(1)
			case CacheMiss:
				f.Stats.CacheMisses.Add(1)
			case CacheCoalesced:
				f.Stats.CacheCoalesced.Add(1)
			}
		}
	} else {
		res, err = invoke()
	}
	if err != nil {
		return err
	}
	f.res = res
	f.pos = 0
	return nil
}

// Next implements Operator.
func (f *FuncScan) Next() (types.Row, error) {
	if f.res == nil || f.pos >= len(f.res.Rows) {
		return nil, io.EOF
	}
	r := f.res.Rows[f.pos]
	f.pos++
	return r, nil
}

// Close implements Operator.
func (f *FuncScan) Close() error { f.res = nil; return nil }

// Describe implements Operator.
func (f *FuncScan) Describe() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("FuncScan %s(%s)", f.Fn.Name(), strings.Join(args, ", "))
}

// Children implements Operator.
func (f *FuncScan) Children() []Operator { return nil }

// Clone implements Operator.
func (f *FuncScan) Clone() Operator {
	return &FuncScan{Fn: f.Fn, Args: f.Args, Sch: f.Sch, Stats: f.Stats}
}

// ---------------------------------------------------------------- Apply

// Apply is the lateral cross product: for every left row it re-opens the
// right side with the left row appended to the binding, emitting
// leftRow ++ rightRow. With an independent right side it degenerates to a
// nested-loop cross join; with lateral references it implements the
// paper's "execution order defined by input parameters".
type Apply struct {
	Left, Right Operator
	Sch         types.Schema
	// Independent marks a right side without lateral references: the
	// operator then composes two materialised result sets and charges the
	// composition cost.
	Independent bool
	// Batch, when enabled and the right side is a bare FuncScan,
	// accumulates outer rows into chunks flushed as one set-oriented
	// invocation each (see batch.go).
	Batch batcher.Policy

	ctx       *Ctx
	bind      types.Row
	leftRow   types.Row
	rightOpen bool
	batch     *batchRun
	slab      rowSlab
}

// Schema implements Operator.
func (a *Apply) Schema() types.Schema { return a.Sch }

// Open implements Operator.
func (a *Apply) Open(ctx *Ctx, bind types.Row) error {
	a.ctx = ctx
	a.bind = bind
	a.leftRow = nil
	a.rightOpen = false
	a.batch = newBatchRun(a.Batch, a.Right)
	a.slab = rowSlab{}
	if a.Independent {
		ctx.Task.Step(simlat.StepJoinComposition, ctx.CompositionCost)
	}
	return a.Left.Open(ctx, bind)
}

// Next implements Operator.
func (a *Apply) Next() (types.Row, error) {
	if a.batch != nil {
		return a.nextBatched()
	}
	for {
		if a.leftRow == nil {
			lr, err := a.Left.Next()
			if err != nil {
				return nil, err
			}
			if err := a.ctx.check(); err != nil {
				return nil, err
			}
			a.leftRow = lr
			childBind := make(types.Row, 0, len(a.bind)+len(lr))
			childBind = append(childBind, a.bind...)
			childBind = append(childBind, lr...)
			if err := a.Right.Open(a.ctx, childBind); err != nil {
				return nil, err
			}
			a.rightOpen = true
		}
		rr, err := a.Right.Next()
		if err == io.EOF {
			a.Right.Close()
			a.rightOpen = false
			a.leftRow = nil
			continue
		}
		if err != nil {
			return nil, err
		}
		return a.slab.concat(a.leftRow, rr), nil
	}
}

// Close implements Operator.
func (a *Apply) Close() error {
	if a.rightOpen {
		a.Right.Close()
		a.rightOpen = false
	}
	return a.Left.Close()
}

// Describe implements Operator.
func (a *Apply) Describe() string {
	if a.Batch.Enabled() {
		return fmt.Sprintf("Apply (lateral, batch=%s)", a.Batch)
	}
	return "Apply (lateral)"
}

// Children implements Operator.
func (a *Apply) Children() []Operator { return []Operator{a.Left, a.Right} }

// Clone implements Operator.
func (a *Apply) Clone() Operator {
	return &Apply{Left: a.Left.Clone(), Right: a.Right.Clone(), Sch: a.Sch, Independent: a.Independent, Batch: a.Batch}
}

// ------------------------------------------------------------ LeftApply

// LeftApply implements LEFT OUTER JOIN with lateral semantics: rows of
// the right side are matched with On; unmatched left rows are padded with
// NULLs.
type LeftApply struct {
	Left, Right Operator
	On          Expr // evaluated over leftRow ++ rightRow; nil matches all
	Sch         types.Schema
	// Batch mirrors Apply.Batch: chunked set-oriented right-side calls.
	Batch batcher.Policy

	ctx       *Ctx
	bind      types.Row
	leftRow   types.Row
	rightOpen bool
	matched   bool
	batch     *batchRun
	slab      rowSlab
}

// Schema implements Operator.
func (a *LeftApply) Schema() types.Schema { return a.Sch }

// Open implements Operator.
func (a *LeftApply) Open(ctx *Ctx, bind types.Row) error {
	a.ctx = ctx
	a.bind = bind
	a.leftRow = nil
	a.rightOpen = false
	a.batch = newBatchRun(a.Batch, a.Right)
	a.slab = rowSlab{}
	return a.Left.Open(ctx, bind)
}

// Next implements Operator.
func (a *LeftApply) Next() (types.Row, error) {
	if a.batch != nil {
		return a.nextBatched()
	}
	for {
		if a.leftRow == nil {
			lr, err := a.Left.Next()
			if err != nil {
				return nil, err
			}
			if err := a.ctx.check(); err != nil {
				return nil, err
			}
			a.leftRow = lr
			a.matched = false
			childBind := make(types.Row, 0, len(a.bind)+len(lr))
			childBind = append(childBind, a.bind...)
			childBind = append(childBind, lr...)
			if err := a.Right.Open(a.ctx, childBind); err != nil {
				a.Right.Close()
				if degrade(a.ctx, true, err) {
					// Absorb the shed branch: emit the NULL-padded outer
					// row, as if the right side matched nothing.
					a.leftRow = nil
					return a.padded(lr), nil
				}
				return nil, err
			}
			a.rightOpen = true
		}
		rr, err := a.Right.Next()
		if err == io.EOF {
			a.Right.Close()
			a.rightOpen = false
			lr := a.leftRow
			a.leftRow = nil
			if !a.matched {
				return a.padded(lr), nil
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		out := a.slab.concat(a.leftRow, rr)
		if a.On != nil {
			v, err := a.On.Eval(out)
			if err != nil {
				return nil, err
			}
			ok, err := Truthy(v)
			if err != nil {
				return nil, err
			}
			if !ok {
				a.slab.unalloc(out)
				continue
			}
		}
		a.matched = true
		return out, nil
	}
}

// padded returns lr followed by one NULL per right-side column: the row of
// an outer row that matched nothing.
func (a *LeftApply) padded(lr types.Row) types.Row {
	out := a.slab.alloc(len(lr) + len(a.Right.Schema()))
	for i := copy(out, lr); i < len(out); i++ {
		out[i] = types.Null
	}
	return out
}

// Close implements Operator.
func (a *LeftApply) Close() error {
	if a.rightOpen {
		a.Right.Close()
		a.rightOpen = false
	}
	return a.Left.Close()
}

// Describe implements Operator.
func (a *LeftApply) Describe() string {
	s := "LeftApply"
	if a.Batch.Enabled() {
		s += fmt.Sprintf(" (batch=%s)", a.Batch)
	}
	if a.On != nil {
		s += " on " + a.On.String()
	}
	return s
}

// Children implements Operator.
func (a *LeftApply) Children() []Operator { return []Operator{a.Left, a.Right} }

// Clone implements Operator.
func (a *LeftApply) Clone() Operator {
	return &LeftApply{Left: a.Left.Clone(), Right: a.Right.Clone(), On: a.On, Sch: a.Sch, Batch: a.Batch}
}

// -------------------------------------------------------------- HashJoin

// HashJoin is the optimizer's replacement for Apply+Filter when the right
// side is independent of the left and the predicate contains equality
// conjuncts: it builds a hash table over the right input once.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Expr // equal-length key expressions
	Residual            Expr   // extra predicate over leftRow ++ rightRow, may be nil
	Sch                 types.Schema

	ctx     *Ctx
	table   map[uint64][]types.Row
	leftRow types.Row
	bucket  []types.Row
	bpos    int
	slab    rowSlab
}

// Schema implements Operator.
func (h *HashJoin) Schema() types.Schema { return h.Sch }

// Open implements Operator.
func (h *HashJoin) Open(ctx *Ctx, bind types.Row) error {
	h.ctx = ctx
	h.leftRow = nil
	h.bucket = nil
	h.table = make(map[uint64][]types.Row)
	h.slab = rowSlab{}
	// A hash join always composes independent result sets.
	ctx.Task.Step(simlat.StepJoinComposition, ctx.CompositionCost)
	if err := h.Right.Open(ctx, bind); err != nil {
		return err
	}
	for {
		rr, err := h.Right.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			h.Right.Close()
			return err
		}
		key, null, err := h.keyHash(h.RightKeys, rr)
		if err != nil {
			h.Right.Close()
			return err
		}
		if null {
			continue // NULL keys never join
		}
		h.table[key] = append(h.table[key], rr)
	}
	h.Right.Close()
	return h.Left.Open(ctx, bind)
}

func (h *HashJoin) keyHash(keys []Expr, row types.Row) (uint64, bool, error) {
	var hash uint64 = 14695981039346656037
	for _, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		hash = hash*1099511628211 ^ v.Hash()
	}
	return hash, false, nil
}

// Next implements Operator.
func (h *HashJoin) Next() (types.Row, error) {
	for {
		if h.leftRow == nil {
			lr, err := h.Left.Next()
			if err != nil {
				return nil, err
			}
			key, null, err := h.keyHash(h.LeftKeys, lr)
			if err != nil {
				return nil, err
			}
			if null {
				continue
			}
			h.leftRow = lr
			h.bucket = h.table[key]
			h.bpos = 0
		}
		if h.bpos >= len(h.bucket) {
			h.leftRow = nil
			continue
		}
		rr := h.bucket[h.bpos]
		h.bpos++
		// Buckets are by hash: compare the keys themselves, and only then
		// build the combined row, so a collision costs none.
		match := true
		for i := range h.LeftKeys {
			lv, err := h.LeftKeys[i].Eval(h.leftRow)
			if err != nil {
				return nil, err
			}
			rv, err := h.RightKeys[i].Eval(rr)
			if err != nil {
				return nil, err
			}
			c, err := types.Compare(lv, rv)
			if err == types.ErrNullCompare {
				match = false
				break
			}
			if err != nil {
				return nil, err
			}
			if c != 0 {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		out := h.slab.concat(h.leftRow, rr)
		if h.Residual != nil {
			v, err := h.Residual.Eval(out)
			if err != nil {
				return nil, err
			}
			ok, err := Truthy(v)
			if err != nil {
				return nil, err
			}
			if !ok {
				h.slab.unalloc(out)
				continue
			}
		}
		return out, nil
	}
}

// Close implements Operator.
func (h *HashJoin) Close() error {
	h.table = nil
	h.bucket = nil
	return h.Left.Close()
}

// Describe implements Operator.
func (h *HashJoin) Describe() string {
	keys := make([]string, len(h.LeftKeys))
	for i := range h.LeftKeys {
		keys[i] = h.LeftKeys[i].String() + "=" + h.RightKeys[i].String()
	}
	s := "HashJoin on " + strings.Join(keys, " AND ")
	if h.Residual != nil {
		s += " residual " + h.Residual.String()
	}
	return s
}

// Children implements Operator.
func (h *HashJoin) Children() []Operator { return []Operator{h.Left, h.Right} }

// Clone implements Operator.
func (h *HashJoin) Clone() Operator {
	return &HashJoin{
		Left: h.Left.Clone(), Right: h.Right.Clone(),
		LeftKeys: h.LeftKeys, RightKeys: h.RightKeys, Residual: h.Residual, Sch: h.Sch,
	}
}

// --------------------------------------------------------------- Filter

// Filter keeps rows whose predicate is true (NULL filters out, per SQL).
type Filter struct {
	Child Operator
	Pred  Expr
}

// Schema implements Operator.
func (f *Filter) Schema() types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx, bind types.Row) error { return f.Child.Open(ctx, bind) }

// Next implements Operator.
func (f *Filter) Next() (types.Row, error) {
	for {
		r, err := f.Child.Next()
		if err != nil {
			return nil, err
		}
		v, err := f.Pred.Eval(r)
		if err != nil {
			return nil, err
		}
		ok, err := Truthy(v)
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// Describe implements Operator.
func (f *Filter) Describe() string { return "Filter " + f.Pred.String() }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Child} }

// Clone implements Operator.
func (f *Filter) Clone() Operator { return &Filter{Child: f.Child.Clone(), Pred: f.Pred} }

// -------------------------------------------------------------- Project

// Project computes the output expressions.
type Project struct {
	Child Operator
	Exprs []Expr
	Sch   types.Schema
	slab  rowSlab
}

// Schema implements Operator.
func (p *Project) Schema() types.Schema { return p.Sch }

// Open implements Operator.
func (p *Project) Open(ctx *Ctx, bind types.Row) error {
	p.slab = rowSlab{}
	return p.Child.Open(ctx, bind)
}

// Next implements Operator.
func (p *Project) Next() (types.Row, error) {
	r, err := p.Child.Next()
	if err != nil {
		return nil, err
	}
	out := p.slab.alloc(len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Describe implements Operator.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = p.Sch[i].Name + "=" + e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Child} }

// Clone implements Operator.
func (p *Project) Clone() Operator {
	return &Project{Child: p.Child.Clone(), Exprs: p.Exprs, Sch: p.Sch}
}

// ----------------------------------------------------------------- Sort

// SortKey is one ORDER BY key over the child's output row.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materialises and orders its input. NULLs sort first ascending,
// last descending.
type Sort struct {
	Child Operator
	Keys  []SortKey
	rows  []types.Row
	pos   int
}

// Schema implements Operator.
func (s *Sort) Schema() types.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx, bind types.Row) error {
	if err := s.Child.Open(ctx, bind); err != nil {
		return err
	}
	defer s.Child.Close()
	s.rows = nil
	s.pos = 0
	type keyed struct {
		row  types.Row
		keys []types.Value
	}
	var data []keyed
	var slab rowSlab // the key vectors live until the sort is done
	for {
		r, err := s.Child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		ks := slab.alloc(len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Expr.Eval(r)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		data = append(data, keyed{row: r, keys: ks})
	}
	var sortErr error
	sort.SliceStable(data, func(i, j int) bool {
		for k, key := range s.Keys {
			a, b := data[i].keys[k], data[j].keys[k]
			an, bn := a.IsNull(), b.IsNull()
			if an || bn {
				if an && bn {
					continue
				}
				// NULLs first ascending, last descending.
				return an != key.Desc
			}
			c, err := types.Compare(a, b)
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.rows = make([]types.Row, len(data))
	for i, d := range data {
		s.rows[i] = d.row
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *Sort) Close() error { s.rows = nil; return nil }

// Describe implements Operator.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Child} }

// Clone implements Operator.
func (s *Sort) Clone() Operator { return &Sort{Child: s.Child.Clone(), Keys: s.Keys} }

// ------------------------------------------------------------- Distinct

// Distinct removes duplicate rows (hash-based with equality re-check).
type Distinct struct {
	Child Operator
	seen  map[uint64][]types.Row
}

// Schema implements Operator.
func (d *Distinct) Schema() types.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(ctx *Ctx, bind types.Row) error {
	d.seen = make(map[uint64][]types.Row)
	return d.Child.Open(ctx, bind)
}

// Next implements Operator.
func (d *Distinct) Next() (types.Row, error) {
	for {
		r, err := d.Child.Next()
		if err != nil {
			return nil, err
		}
		var h uint64 = 14695981039346656037
		for _, v := range r {
			h = h*1099511628211 ^ v.Hash()
		}
		dup := false
		for _, prev := range d.seen[h] {
			if prev.Equal(r) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], r)
		return r, nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error { d.seen = nil; return d.Child.Close() }

// Describe implements Operator.
func (d *Distinct) Describe() string { return "Distinct" }

// Children implements Operator.
func (d *Distinct) Children() []Operator { return []Operator{d.Child} }

// Clone implements Operator.
func (d *Distinct) Clone() Operator { return &Distinct{Child: d.Child.Clone()} }

// --------------------------------------------------------------- Concat

// Concat streams its children one after the other: the UNION ALL
// operator (UNION wraps it in Distinct).
type Concat struct {
	Inputs []Operator
	ctx    *Ctx
	bind   types.Row
	pos    int
	open   bool
}

// Schema implements Operator; column names come from the first input.
func (c *Concat) Schema() types.Schema { return c.Inputs[0].Schema() }

// Open implements Operator.
func (c *Concat) Open(ctx *Ctx, bind types.Row) error {
	c.ctx = ctx
	c.bind = bind
	c.pos = 0
	c.open = false
	return nil
}

// Next implements Operator.
func (c *Concat) Next() (types.Row, error) {
	for {
		if c.pos >= len(c.Inputs) {
			return nil, io.EOF
		}
		if !c.open {
			if err := c.Inputs[c.pos].Open(c.ctx, c.bind); err != nil {
				return nil, err
			}
			c.open = true
		}
		row, err := c.Inputs[c.pos].Next()
		if err == io.EOF {
			c.Inputs[c.pos].Close()
			c.open = false
			c.pos++
			continue
		}
		if err != nil {
			return nil, err
		}
		return row, nil
	}
}

// Close implements Operator.
func (c *Concat) Close() error {
	if c.open && c.pos < len(c.Inputs) {
		c.Inputs[c.pos].Close()
		c.open = false
	}
	return nil
}

// Describe implements Operator.
func (c *Concat) Describe() string { return fmt.Sprintf("Concat (%d inputs)", len(c.Inputs)) }

// Children implements Operator.
func (c *Concat) Children() []Operator { return c.Inputs }

// Clone implements Operator.
func (c *Concat) Clone() Operator {
	inputs := make([]Operator, len(c.Inputs))
	for i, in := range c.Inputs {
		inputs[i] = in.Clone()
	}
	return &Concat{Inputs: inputs}
}

// ---------------------------------------------------------------- Limit

// Limit implements LIMIT/OFFSET. A negative limit means unlimited.
type Limit struct {
	Child   Operator
	Count   int64
	Skip    int64
	emitted int64
	skipped int64
}

// Schema implements Operator.
func (l *Limit) Schema() types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx, bind types.Row) error {
	l.emitted, l.skipped = 0, 0
	return l.Child.Open(ctx, bind)
}

// Next implements Operator.
func (l *Limit) Next() (types.Row, error) {
	for {
		if l.Count >= 0 && l.emitted >= l.Count {
			return nil, io.EOF
		}
		r, err := l.Child.Next()
		if err != nil {
			return nil, err
		}
		if l.skipped < l.Skip {
			l.skipped++
			continue
		}
		l.emitted++
		return r, nil
	}
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// Describe implements Operator.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d offset %d", l.Count, l.Skip) }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Child} }

// Clone implements Operator.
func (l *Limit) Clone() Operator {
	return &Limit{Child: l.Child.Clone(), Count: l.Count, Skip: l.Skip}
}

package exec

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"fedwf/internal/catalog"
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

	// Params is the bound row of a plan compiled with parameters — a
	// function body's cast arguments — which every Param expression of the
	// plan reads; nil for a plan that declares none.
	Params types.Row

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
// as issued by parallel Apply workers — coalesce into one underlying call,
// with the latecomers blocking until the in-flight call completes instead
// of stampeding the controller with duplicate federated-function calls.
type FuncCache struct {
	mu        sync.Mutex
	entries   map[uint64][]*funcCall // by callHash; colliding calls share a chain
	hits      int
	misses    int
	coalesced int
}

// funcCall is one materialised or in-flight invocation of name on args;
// done is closed once res/err are set.
type funcCall struct {
	name string
	args []types.Value
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
	return &FuncCache{entries: make(map[uint64][]*funcCall)}
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

// callHash chains the case-folded function name with each argument's
// Value.Hash: the chain of cache entries a call looks in. sameCall settles
// collisions, so a lookup builds no key and allocates nothing. Two calls
// share an entry when their names are equal up to case (strings.ToLower)
// and their arguments are pairwise of one kind and identical: integer 1 and
// double 1.0 hash alike but occupy two entries, as do 0.0 and -0.0, while
// every NaN is the same argument whatever its payload.
func callHash(name string, args []types.Value) uint64 {
	var h uint64 = 14695981039346656037
	for _, r := range name {
		h = (h ^ uint64(unicode.ToLower(r))) * 1099511628211
	}
	for _, a := range args {
		h = (h ^ a.Hash()) * 1099511628211
	}
	return h
}

// sameCall reports whether c is the call of name on args.
func (c *funcCall) sameCall(name string, args []types.Value) bool {
	if len(c.args) != len(args) {
		return false
	}
	for i, a := range args {
		b := c.args[i]
		if a.Kind() != b.Kind() {
			return false
		}
		if a.Kind() == types.KindFloat {
			af, bf := a.Float(), b.Float()
			if math.Float64bits(af) != math.Float64bits(bf) && !(math.IsNaN(af) && math.IsNaN(bf)) {
				return false
			}
		} else if !a.Equal(b) {
			return false
		}
	}
	n := c.name
	for _, r := range name {
		m, size := utf8.DecodeRuneInString(n)
		if size == 0 || unicode.ToLower(m) != unicode.ToLower(r) {
			return false
		}
		n = n[size:]
	}
	return n == ""
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
	c, outcome := fc.acquire(name, args)
	if outcome == CacheMiss {
		c.res, c.err = call()
		close(c.done)
	}
	<-c.done
	return c.res, outcome, c.err
}

// acquire classifies one lookup and reserves the key on a miss, whose
// caller MUST publish a result (set res/err, close done) exactly once. A
// coalesced entry is owned by another call in flight — or by an earlier
// duplicate row of the same chunk, so duplicates travel once.
func (fc *FuncCache) acquire(name string, args []types.Value) (*funcCall, CacheOutcome) {
	h := callHash(name, args)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for _, c := range fc.entries[h] {
		if !c.sameCall(name, args) {
			continue
		}
		select {
		case <-c.done:
			fc.hits++
			return c, CacheHit
		default:
			fc.coalesced++
			return c, CacheCoalesced
		}
	}
	c := &funcCall{name: name, args: slices.Clone(args), done: make(chan struct{})}
	fc.entries[h] = append(fc.entries[h], c)
	fc.misses++
	return c, CacheMiss
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
	// concurrently with the original. A parallel Apply clones its right
	// side once per worker.
	Clone() Operator
}

// Run drains an operator into a materialised table. The root is closed on
// every path, including an Open that fails after acquiring resources
// (e.g. an Apply whose left side opened before the failure).
func Run(op Operator, ctx *Ctx) (*types.Table, error) {
	rows, err := collect(op, ctx, nil)
	if err != nil {
		return nil, err
	}
	out := types.NewTable(op.Schema().Clone())
	out.Rows = rows
	return out, nil
}

// collect opens op under bind and drains it; op is closed on every path.
func collect(op Operator, ctx *Ctx, bind types.Row) ([]types.Row, error) {
	defer op.Close()
	if err := op.Open(ctx, bind); err != nil {
		return nil, err
	}
	var rows []types.Row
	for {
		row, err := op.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		if len(rows) == cap(rows) && len(rows) >= 256 {
			// append grows by about 1.25x from 256 entries on; doubling
			// copies and discards half as many row headers on a wide
			// result. Below 256, append doubles already.
			rows = slices.Grow(rows, len(rows))
		}
		rows = append(rows, row)
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

// evalArgs evaluates the argument expressions against bind and the bound
// parameter row into args.
func (f *FuncScan) evalArgs(bind, params types.Row, args []types.Value) error {
	for i, a := range f.Args {
		v, err := a.Eval(bind, params)
		if err != nil {
			return fmt.Errorf("exec: argument %d of %s: %w", i+1, f.Fn.Name(), err)
		}
		args[i] = v
	}
	return nil
}

// Open implements Operator.
func (f *FuncScan) Open(ctx *Ctx, bind types.Row) error {
	args := make([]types.Value, len(f.Args))
	if err := f.evalArgs(bind, ctx.Params, args); err != nil {
		return err
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
		f.Stats.noteCache(outcome)
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

// invokeBatch returns the function's result for each outer row of chunk
// from at most one set-oriented call, which only cache misses join. Any
// failure fails the whole chunk, as the RPC layer's batches do.
func (f *FuncScan) invokeBatch(ctx *Ctx, bind types.Row, chunk []types.Row) (out []*types.Table, err error) {
	n, width := len(chunk), len(f.Args)
	vals, argRows := make([]types.Value, n*width), make([][]types.Value, n)
	for i, lr := range chunk {
		argRows[i] = vals[i*width : (i+1)*width : (i+1)*width]
		if err := f.evalArgs(childBind(bind, lr), ctx.Params, argRows[i]); err != nil {
			return nil, err
		}
	}
	if err := ctx.check(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx.Task, "exec.func.batch",
		obs.Attr{Key: "fn", Value: f.Fn.Name()},
		obs.Attr{Key: "batch_size", Value: strconv.Itoa(n)})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(ctx.Task)
	}()
	wire, calls, wireCalls := argRows, []*funcCall(nil), []*funcCall(nil)
	if fc := ctx.FuncCache; fc != nil {
		wire, calls = nil, make([]*funcCall, n)
		for i, args := range argRows {
			c, outcome := fc.acquire(f.Fn.Name(), args)
			calls[i] = c
			f.Stats.noteCache(outcome)
			if outcome == CacheMiss {
				wire, wireCalls = append(wire, args), append(wireCalls, c)
			}
		}
	}
	sp.SetAttr("wire_rows", strconv.Itoa(len(wire)))
	if len(wire) > 0 {
		out, err = catalog.InvokeFuncBatch(ctx.Context, f.Fn, ctx.Runner, ctx.Task, wire)
		// Publish on every reserved entry, failures too (errors are cached).
		for j, c := range wireCalls {
			if c.err = err; err == nil {
				c.res = out[j]
			}
			close(c.done)
		}
		if err != nil || calls == nil {
			return out, err
		}
	}
	out = make([]*types.Table, n)
	for i, c := range calls {
		<-c.done // hits and own misses are already closed; coalesced may wait
		if c.err != nil {
			return nil, c.err
		}
		out[i] = c.res
	}
	return out, nil
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

// -------------------------------------------------------------- HashJoin

// HashJoin is the optimizer's replacement for Apply+Filter when the right
// side is independent of the left and the predicate contains equality
// conjuncts: it builds a hash table over the right input once.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Expr // equal-length key expressions
	Sch                 types.Schema
	// Transient makes every match come back in one row the join reuses, so
	// a row is valid only until the next Next. The planner sets it when the
	// consumer is an Agg, alone or through Filters, which folds each row
	// before it asks for the next and keeps none (DESIGN Sect. 18).
	Transient bool

	ctx *Ctx
	// The build side as one chained table. Each hash's rows form a ring
	// in build order; last maps the hash to the index in build of the
	// ring's last row, whose next is the first.
	last    map[uint64]int32
	build   []buildRow
	leftRow types.Row
	cand    int32 // the next build row to try against leftRow, -1 for none
	end     int32 // the last build row with leftRow's hash
	slab    types.Slab
	out     types.Row // the reused row of a transient join
}

// buildRow is one row of a HashJoin's build side.
type buildRow struct {
	row  types.Row
	next int32 // the next row with the same hash, the first after the last
}

// Schema implements Operator.
func (h *HashJoin) Schema() types.Schema { return h.Sch }

// Open implements Operator.
func (h *HashJoin) Open(ctx *Ctx, bind types.Row) error {
	h.ctx = ctx
	h.leftRow = nil
	h.last, h.build = make(map[uint64]int32), nil
	h.slab = types.Slab{}
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
		// Row i goes into its hash's ring after the last row, or starts a
		// ring of one, and is the ring's last row from now on.
		i := int32(len(h.build))
		next := i
		if last, ok := h.last[key]; ok {
			next, h.build[last].next = h.build[last].next, i
		}
		h.build = append(h.build, buildRow{row: rr, next: next})
		h.last[key] = i
	}
	h.Right.Close()
	return h.Left.Open(ctx, bind)
}

func (h *HashJoin) keyHash(keys []Expr, row types.Row) (uint64, bool, error) {
	var hash uint64 = 14695981039346656037
	for _, k := range keys {
		v, err := k.Eval(row, h.ctx.Params)
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
			last, ok := h.last[key]
			if !ok {
				continue
			}
			h.leftRow = lr
			h.cand, h.end = h.build[last].next, last
		}
		if h.cand < 0 {
			h.leftRow = nil
			continue
		}
		rr := h.build[h.cand].row
		if h.cand == h.end {
			h.cand = -1
		} else {
			h.cand = h.build[h.cand].next
		}
		// Rings are by hash: compare the keys themselves, and only then
		// build the combined row, so a collision costs none.
		match := true
		for i := range h.LeftKeys {
			lv, err := h.LeftKeys[i].Eval(h.leftRow, h.ctx.Params)
			if err != nil {
				return nil, err
			}
			rv, err := h.RightKeys[i].Eval(rr, h.ctx.Params)
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
		if !h.Transient {
			return h.slab.Concat(h.leftRow, rr), nil
		}
		if n := len(h.leftRow) + len(rr); len(h.out) != n {
			h.out = make(types.Row, n)
		}
		copy(h.out[copy(h.out, h.leftRow):], rr)
		return h.out, nil
	}
}

// Close implements Operator.
func (h *HashJoin) Close() error {
	h.last, h.build = nil, nil
	return h.Left.Close()
}

// Describe implements Operator.
func (h *HashJoin) Describe() string {
	keys := make([]string, len(h.LeftKeys))
	for i := range h.LeftKeys {
		keys[i] = h.LeftKeys[i].String() + "=" + h.RightKeys[i].String()
	}
	return "HashJoin on " + strings.Join(keys, " AND ")
}

// Children implements Operator.
func (h *HashJoin) Children() []Operator { return []Operator{h.Left, h.Right} }

// Clone implements Operator.
func (h *HashJoin) Clone() Operator {
	return &HashJoin{
		Left: h.Left.Clone(), Right: h.Right.Clone(),
		LeftKeys: h.LeftKeys, RightKeys: h.RightKeys, Sch: h.Sch, Transient: h.Transient,
	}
}

// --------------------------------------------------------------- Filter

// Filter keeps rows whose predicate is true (NULL filters out, per SQL).
type Filter struct {
	Child Operator
	Pred  Expr
	ctx   *Ctx
}

// Schema implements Operator.
func (f *Filter) Schema() types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx, bind types.Row) error {
	f.ctx = ctx
	return f.Child.Open(ctx, bind)
}

// Next implements Operator.
func (f *Filter) Next() (types.Row, error) {
	for {
		r, err := f.Child.Next()
		if err != nil {
			return nil, err
		}
		ok, err := holds(f.Pred, r, f.ctx.Params)
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

// Project computes the output expressions. When they are the child's
// leading columns in order — SELECT *, a select list that names a table's
// columns as declared, the projection that trims hidden ORDER BY columns —
// it passes the child's row through, capped at the projected width, instead
// of copying it: values are immutable, and the cap makes an append by
// whoever receives the row reallocate rather than write into the child's.
type Project struct {
	Child Operator
	Exprs []Expr
	Sch   types.Schema
	slab  types.Slab
	// prefix is set in Open: Exprs are Col{Idx: 0} ... Col{Idx: k-1}.
	prefix bool
	ctx    *Ctx
}

// Schema implements Operator.
func (p *Project) Schema() types.Schema { return p.Sch }

// Open implements Operator.
func (p *Project) Open(ctx *Ctx, bind types.Row) error {
	p.slab = types.Slab{}
	p.ctx = ctx
	p.prefix = len(p.Exprs) > 0
	for i, e := range p.Exprs {
		if c, ok := e.(Col); !ok || c.Idx != i {
			p.prefix = false
			break
		}
	}
	return p.Child.Open(ctx, bind)
}

// Next implements Operator.
func (p *Project) Next() (types.Row, error) {
	r, err := p.Child.Next()
	if err != nil {
		return nil, err
	}
	k := len(p.Exprs)
	if p.prefix && len(r) >= k {
		return r[:k:k], nil
	}
	// A short row takes this path so that Col.Eval reports it.
	out := p.slab.Alloc(k)
	for i, e := range p.Exprs {
		v, err := e.Eval(r, p.ctx.Params)
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
	var slab types.Slab // the key vectors live until the sort is done
	for {
		r, err := s.Child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		ks := slab.Alloc(len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Expr.Eval(r, ctx.Params)
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

// Package catalog implements the FDBS system catalog: base tables,
// registered table functions (the UDTF mechanism), foreign servers
// attached through SQL/MED-style wrappers, and nicknames for remote
// tables.
//
// Table functions are the paper's central extension point. Three flavours
// exist:
//
//   - SQL functions (CREATE FUNCTION ... LANGUAGE SQL RETURN SELECT):
//     the enhanced SQL UDTF architecture's integration UDTFs;
//   - Go functions (LANGUAGE EXTERNAL): host-implemented functions used
//     for access UDTFs, Go integration UDTFs, and the workflow UDTF;
//   - any further implementation of the TableFunc interface.
package catalog

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/storage"
	"fedwf/internal/types"
)

// QueryRunner runs a function body on one bound row under the statement
// context. It is implemented by the engine and handed to table functions so
// SQL UDTF bodies can run without the catalog depending on the executor.
type QueryRunner interface {
	RunBodyContext(ctx context.Context, body *Body, bind []types.Value, task *simlat.Task) (*types.Table, error)
}

// Body is a SELECT whose parameters are the columns of a bound row: a SQL
// function's body, or one step of a Go integration UDTF. Column i of the
// row a call binds is Params[i]. A runner plans a body once per planner
// options and catalog generation and runs each call on a copy of that plan
// opened on the call's row (DESIGN Sect. 5), so a Body is created once, at
// registration, and never changed.
type Body struct {
	Select *sqlparser.Select
	Params []Param
}

// Param declares one column of a body's bound row: the body reads it bare
// (SupplierNo) or qualified by Corr (BuySuppComp.SupplierNo), and the
// planner infers its type from Type.
type Param struct {
	Corr string
	Name string
	Type types.Type
}

// TableFunc is a registered table function (UDTF). InvokeContext receives
// the statement context (deadline, cancellation), the engine runner (for
// nested SQL), the request's cost meter, and the argument values; it
// returns a materialised table matching Schema.
type TableFunc interface {
	Name() string
	Params() []types.Column
	Schema() types.Schema
	InvokeContext(ctx context.Context, rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error)
}

// InvokeFunc calls f.InvokeContext; it is the per-row twin of
// InvokeFuncBatch. It is kept out of line on a measurement: inlined into
// exec.FuncScan it cost the fed_wfms benchmark workload 10–15 % of its
// throughput at equal allocations and per-layer times (EXPERIMENTS,
// "Wall-clock ledger … (PR 23)").
//
//go:noinline
func InvokeFunc(ctx context.Context, f TableFunc, rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	return f.InvokeContext(ctx, rt, task, args)
}

// BatchTableFunc is the set-oriented extension of TableFunc (the
// database/sql optional-interface pattern): one invocation carries N
// argument rows and returns one table per row, letting the implementation
// amortize its per-call setup — RPC round trips, workflow instances, JVM
// boots — across the whole batch.
type BatchTableFunc interface {
	TableFunc
	InvokeBatch(ctx context.Context, rt QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error)
}

// InvokeFuncBatch dispatches the batch to f.InvokeBatch when implemented,
// else degrades to a per-row InvokeContext loop so every function stays
// callable from a batched plan.
func InvokeFuncBatch(ctx context.Context, f TableFunc, rt QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
	if bf, ok := f.(BatchTableFunc); ok {
		out, err := bf.InvokeBatch(ctx, rt, task, rows)
		if err != nil {
			return nil, err
		}
		if len(out) != len(rows) {
			return nil, fmt.Errorf("catalog: %s batch returned %d tables for %d rows", f.Name(), len(out), len(rows))
		}
		return out, nil
	}
	out := make([]*types.Table, len(rows))
	for i, args := range rows {
		res, err := f.InvokeContext(ctx, rt, task, args)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// ForeignServer is a data source attached via a wrapper. The planner
// pushes single-server subqueries down through QueryContext.
type ForeignServer interface {
	Name() string
	// TableSchemaContext describes a remote table, for nickname creation.
	TableSchemaContext(ctx context.Context, remote string) (types.Schema, error)
	// QueryContext executes a pushed-down SELECT remotely.
	QueryContext(ctx context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, error)
}

// Nickname maps a local name onto a remote table of a foreign server.
type Nickname struct {
	Name   string
	Server string
	Remote string
	Schema types.Schema
}

// Catalog is the FDBS system catalog. All lookups are case-insensitive.
type Catalog struct {
	// gen counts the changes that can alter what a compiled plan resolved:
	// a table, view, nickname or virtual table created or dropped, a
	// function dropped, an index created. Creating a function does not
	// count: no plan that compiled can have resolved a name that did not
	// exist yet.
	gen       atomic.Uint64
	mu        sync.RWMutex
	store     *storage.Store
	funcs     map[string]TableFunc
	servers   map[string]ForeignServer
	nicknames map[string]*Nickname
	wrappers  map[string]WrapperFactory
	views     map[string]*sqlparser.Select
	virtuals  map[string]*VirtualTable
}

// VirtualTable is a read-only relation materialized on demand by a
// provider function — the mechanism behind the fed_stat_* introspection
// tables, where the federation queries its own statistics through its own
// SQL path. The provider is called once per scan, under the catalog's
// read path, and must be safe for concurrent use.
type VirtualTable struct {
	Name     string
	Sch      types.Schema
	Provider func() (*types.Table, error)
}

// WrapperFactory creates a ForeignServer from CREATE SERVER options. The
// fdbs layer registers factories under wrapper names before any CREATE
// SERVER statement references them.
type WrapperFactory func(serverName string, options map[string]string) (ForeignServer, error)

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		store:     storage.NewStore(),
		funcs:     make(map[string]TableFunc),
		servers:   make(map[string]ForeignServer),
		nicknames: make(map[string]*Nickname),
		wrappers:  make(map[string]WrapperFactory),
		views:     make(map[string]*sqlparser.Select),
		virtuals:  make(map[string]*VirtualTable),
	}
}

// Generation returns the catalog's generation: a plan compiled at one
// generation resolves the same objects as long as it does not move.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// CreateTable creates a base table.
func (c *Catalog) CreateTable(name string, schema types.Schema) (*storage.Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.nicknames[key]; ok {
		return nil, fmt.Errorf("catalog: %s already exists as a nickname", name)
	}
	if _, ok := c.views[key]; ok {
		return nil, fmt.Errorf("catalog: %s already exists as a view", name)
	}
	if _, ok := c.virtuals[key]; ok {
		return nil, fmt.Errorf("catalog: %s already exists as a virtual table", name)
	}
	defer c.gen.Add(1)
	return c.store.Create(name, schema)
}

// CreateIndex builds a hash index on one column of a base table.
func (c *Catalog) CreateIndex(table, column string) error {
	tab, err := c.store.Get(table)
	if err != nil {
		return err
	}
	defer c.gen.Add(1)
	return tab.CreateIndex(column)
}

// RegisterVirtual installs a virtual table; the name must be free of
// nicknames, views, virtual tables, and base tables.
func (c *Catalog) RegisterVirtual(v *VirtualTable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(v.Name)
	if _, ok := c.nicknames[key]; ok {
		return fmt.Errorf("catalog: %s already exists as a nickname", v.Name)
	}
	if _, ok := c.views[key]; ok {
		return fmt.Errorf("catalog: %s already exists as a view", v.Name)
	}
	if _, ok := c.virtuals[key]; ok {
		return fmt.Errorf("catalog: virtual table %s already exists", v.Name)
	}
	if _, err := c.store.Get(v.Name); err == nil {
		return fmt.Errorf("catalog: %s already exists as a base table", v.Name)
	}
	c.virtuals[key] = v
	c.gen.Add(1)
	return nil
}

// Virtual returns the named virtual table, or nil when absent.
func (c *Catalog) Virtual(name string) *VirtualTable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, _ := types.LookupFold(c.virtuals, name)
	return v
}

// Virtuals lists virtual table names in sorted order.
func (c *Catalog) Virtuals() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.virtuals))
	for _, v := range c.virtuals {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// Table returns the named base table.
func (c *Catalog) Table(name string) (*storage.Table, error) {
	return c.store.Get(name)
}

// DropTable removes a base table.
func (c *Catalog) DropTable(name string) error {
	defer c.gen.Add(1)
	return c.store.Drop(name)
}

// Tables lists base table names.
func (c *Catalog) Tables() []string { return c.store.List() }

// RegisterFunc installs a table function; the name must be free.
func (c *Catalog) RegisterFunc(f TableFunc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(f.Name())
	if _, ok := c.funcs[key]; ok {
		return fmt.Errorf("catalog: function %s already exists", f.Name())
	}
	c.funcs[key] = f
	return nil
}

// Func returns the named table function.
func (c *Catalog) Func(name string) (TableFunc, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := types.LookupFold(c.funcs, name)
	if !ok {
		return nil, fmt.Errorf("catalog: no function named %s", name)
	}
	return f, nil
}

// DropFunc unregisters a table function.
func (c *Catalog) DropFunc(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.funcs[key]; !ok {
		return fmt.Errorf("catalog: no function named %s", name)
	}
	delete(c.funcs, key)
	c.gen.Add(1)
	return nil
}

// Funcs lists registered function names in sorted order.
func (c *Catalog) Funcs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.funcs))
	for _, f := range c.funcs {
		out = append(out, f.Name())
	}
	sort.Strings(out)
	return out
}

// RegisterWrapper installs a wrapper factory (CREATE WRAPPER makes it
// visible to CREATE SERVER).
func (c *Catalog) RegisterWrapper(name string, factory WrapperFactory) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.wrappers[key]; ok {
		return fmt.Errorf("catalog: wrapper %s already exists", name)
	}
	c.wrappers[key] = factory
	return nil
}

// Wrapper returns the named wrapper factory.
func (c *Catalog) Wrapper(name string) (WrapperFactory, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.wrappers[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no wrapper named %s", name)
	}
	return w, nil
}

// CreateServer attaches a foreign server through the named wrapper.
func (c *Catalog) CreateServer(name, wrapper string, options map[string]string) error {
	factory, err := c.Wrapper(wrapper)
	if err != nil {
		return err
	}
	srv, err := factory(name, options)
	if err != nil {
		return fmt.Errorf("catalog: creating server %s: %w", name, err)
	}
	return c.AddServer(srv)
}

// AddServer registers an already-constructed foreign server.
func (c *Catalog) AddServer(srv ForeignServer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(srv.Name())
	if _, ok := c.servers[key]; ok {
		return fmt.Errorf("catalog: server %s already exists", srv.Name())
	}
	c.servers[key] = srv
	return nil
}

// Server returns the named foreign server.
func (c *Catalog) Server(name string) (ForeignServer, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.servers[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no server named %s", name)
	}
	return s, nil
}

// Servers lists attached server names in sorted order.
func (c *Catalog) Servers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.servers))
	for _, s := range c.servers {
		out = append(out, s.Name())
	}
	sort.Strings(out)
	return out
}

// CreateNicknameContext exposes server.remote under a local name, fetching
// the remote schema eagerly — under the caller's context — so planning
// needs no remote round trip.
func (c *Catalog) CreateNicknameContext(ctx context.Context, name, server, remote string) error {
	srv, err := c.Server(server)
	if err != nil {
		return err
	}
	schema, err := srv.TableSchemaContext(ctx, remote)
	if err != nil {
		return fmt.Errorf("catalog: nickname %s: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.nicknames[key]; ok {
		return fmt.Errorf("catalog: nickname %s already exists", name)
	}
	if _, err := c.store.Get(name); err == nil {
		return fmt.Errorf("catalog: %s already exists as a base table", name)
	}
	c.nicknames[key] = &Nickname{Name: name, Server: server, Remote: remote, Schema: schema.Clone()}
	c.gen.Add(1)
	return nil
}

// Nickname returns the named nickname, or nil when absent.
func (c *Catalog) Nickname(name string) *Nickname {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, _ := types.LookupFold(c.nicknames, name)
	return n
}

// CreateView registers a named query: the paper's homogenized view layer.
// The name must not collide with a base table or nickname.
func (c *Catalog) CreateView(name string, query *sqlparser.Select) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.views[key]; ok {
		return fmt.Errorf("catalog: view %s already exists", name)
	}
	if _, ok := c.nicknames[key]; ok {
		return fmt.Errorf("catalog: %s already exists as a nickname", name)
	}
	if _, err := c.store.Get(name); err == nil {
		return fmt.Errorf("catalog: %s already exists as a base table", name)
	}
	c.views[key] = query
	c.gen.Add(1)
	return nil
}

// View returns the named view's query, or nil when absent.
func (c *Catalog) View(name string) *sqlparser.Select {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, _ := types.LookupFold(c.views, name)
	return v
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.views[key]; !ok {
		return fmt.Errorf("catalog: no view named %s", name)
	}
	delete(c.views, key)
	c.gen.Add(1)
	return nil
}

// Views lists view names in sorted order.
func (c *Catalog) Views() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.views))
	for name := range c.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SQLFunc is a LANGUAGE SQL table function: the paper's SQL integration
// UDTF. Its body runs through the engine's QueryRunner on the cast call
// arguments as its bound row.
type SQLFunc struct {
	FName    string
	FParams  []types.Column
	FReturns types.Schema
	Body     *Body
	// Around, when set, runs each call of the body in its place: the UDTF
	// layer opens its span and charges its simulated costs there, and runs
	// the body once through call.Run, so whatever it opened closes on every
	// path.
	Around func(task *simlat.Task, call SQLCall) (*types.Table, error)
	// BatchBody, when set, is a set-oriented realization of the function:
	// one call receives all argument rows of a batch and answers one table
	// per row. The per-row SQL body stays the reference semantics;
	// BatchBody is the optimized path a batched plan uses.
	BatchBody func(ctx context.Context, rt QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error)
}

// NewSQLFunc returns the SQL function name(params) RETURNS TABLE returns
// whose body is sel. The parameters are the columns of the body's bound
// row, visible bare (SupplierNo) and qualified by the function's name
// (BuySuppComp.SupplierNo), matching the paper's DB2 examples.
func NewSQLFunc(name string, params []types.Column, returns types.Schema, sel *sqlparser.Select) *SQLFunc {
	body := &Body{Select: sel, Params: make([]Param, len(params))}
	for i, p := range params {
		body.Params[i] = Param{Corr: name, Name: p.Name, Type: p.Type}
	}
	return &SQLFunc{FName: name, FParams: params, FReturns: returns, Body: body}
}

// SQLCall is one pending call of a SQL function's body, handed to Around.
// It is passed by value, so handing it over allocates nothing.
type SQLCall struct {
	f    *SQLFunc
	ctx  context.Context
	rt   QueryRunner
	task *simlat.Task
	args []types.Value
}

// Run runs the body on the call's arguments and coerces its result to the
// declared RETURNS TABLE schema.
func (c SQLCall) Run() (*types.Table, error) {
	res, err := c.rt.RunBodyContext(c.ctx, c.f.Body, c.args, c.task)
	if err != nil {
		return nil, fmt.Errorf("catalog: executing %s: %w", c.f.FName, err)
	}
	out, err := coerceTable(res, c.f.FReturns)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s result: %w", c.f.FName, err)
	}
	return &out, nil
}

// Name implements TableFunc.
func (f *SQLFunc) Name() string { return f.FName }

// Params implements TableFunc.
func (f *SQLFunc) Params() []types.Column { return f.FParams }

// Schema implements TableFunc.
func (f *SQLFunc) Schema() types.Schema { return f.FReturns }

// InvokeContext implements TableFunc: it casts the arguments to the
// declared parameter types and runs the body on them under the statement
// context, through Around when it is set.
func (f *SQLFunc) InvokeContext(ctx context.Context, rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	cast, err := castArgs(f.FName, f.FParams, args)
	if err != nil {
		return nil, err
	}
	if rt == nil {
		return nil, fmt.Errorf("catalog: %s needs a query runner", f.FName)
	}
	call := SQLCall{f: f, ctx: ctx, rt: rt, task: task, args: cast}
	if f.Around != nil {
		return f.Around(task, call)
	}
	return call.Run()
}

// InvokeBatch implements BatchTableFunc. Without a BatchBody the batch
// degrades to a per-row InvokeContext loop.
func (f *SQLFunc) InvokeBatch(ctx context.Context, rt QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
	if f.BatchBody == nil {
		out := make([]*types.Table, len(rows))
		for i, args := range rows {
			res, err := f.InvokeContext(ctx, rt, task, args)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	cast, err := castRows(f.FName, f.FParams, rows)
	if err != nil {
		return nil, err
	}
	res, err := f.BatchBody(ctx, rt, task, cast)
	if err != nil {
		return nil, fmt.Errorf("catalog: executing %s: %w", f.FName, err)
	}
	return coerceTables(f.FName, res, len(rows), f.FReturns)
}

// GoFunc is a host-implemented table function (LANGUAGE EXTERNAL): the
// mechanism behind access UDTFs, Go integration UDTFs, and the workflow
// UDTF. A body receives the caller's argument slices wherever no cast
// changes a value, so it must not write into them; the table it answers
// is read, never written, and the caller gets a fresh header over its rows.
type GoFunc struct {
	FName    string
	FParams  []types.Column
	FReturns types.Schema
	Fn       func(rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error)
	// FnCtx, when set, takes precedence over Fn and receives the statement
	// context, so deadlines and cancellation flow into the host body.
	FnCtx func(ctx context.Context, rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error)
	// FnBatchCtx, when set, makes the function set-oriented: one call
	// receives all argument rows of a batch and answers one table per row.
	FnBatchCtx func(ctx context.Context, rt QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error)
}

// Name implements TableFunc.
func (f *GoFunc) Name() string { return f.FName }

// Params implements TableFunc.
func (f *GoFunc) Params() []types.Column { return f.FParams }

// Schema implements TableFunc.
func (f *GoFunc) Schema() types.Schema { return f.FReturns }

// InvokeContext implements TableFunc: it casts the arguments to the
// declared parameter types, runs the host implementation, and coerces its
// result to the declared schema.
func (f *GoFunc) InvokeContext(ctx context.Context, rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	cast, err := castArgs(f.FName, f.FParams, args)
	if err != nil {
		return nil, err
	}
	var res *types.Table
	if f.FnCtx != nil {
		res, err = f.FnCtx(ctx, rt, task, cast)
	} else {
		res, err = f.Fn(rt, task, cast)
	}
	if err != nil {
		return nil, err
	}
	out, err := coerceTable(res, f.FReturns)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s result: %w", f.FName, err)
	}
	return &out, nil
}

// InvokeBatch implements BatchTableFunc. When FnBatchCtx is unset the
// batch degrades to a per-row InvokeContext loop, so registering a plain
// GoFunc in a batched plan stays correct — just not amortized.
func (f *GoFunc) InvokeBatch(ctx context.Context, rt QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
	if f.FnBatchCtx == nil {
		out := make([]*types.Table, len(rows))
		for i, args := range rows {
			res, err := f.InvokeContext(ctx, rt, task, args)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	cast, err := castRows(f.FName, f.FParams, rows)
	if err != nil {
		return nil, err
	}
	res, err := f.FnBatchCtx(ctx, rt, task, cast)
	if err != nil {
		return nil, err
	}
	return coerceTables(f.FName, res, len(rows), f.FReturns)
}

// castArgs casts a call's arguments to the declared parameter types (the
// arity is checked) copy-on-write: args itself when no cast changes a
// value, else a copy. A function body must not write into its arguments.
func castArgs(name string, params []types.Column, args []types.Value) ([]types.Value, error) {
	if len(args) != len(params) {
		return nil, fmt.Errorf("catalog: %s expects %d arguments, got %d", name, len(params), len(args))
	}
	cast, at, err := types.ConformArgs(args, params)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s parameter %s: %w", name, params[at].Name, err)
	}
	return cast, nil
}

// castRows is castArgs over a batch: rows itself when no cast changes a
// value, else a copy that shares every argument row no cast changes.
func castRows(name string, params []types.Column, rows [][]types.Value) ([][]types.Value, error) {
	out := rows
	for i, args := range rows {
		cast, err := castArgs(name, params, args)
		if err != nil {
			return nil, err
		}
		if len(cast) == 0 || &cast[0] == &args[0] {
			continue
		}
		if &out[0] == &rows[0] {
			out = slices.Clone(rows)
		}
		out[i] = cast
	}
	return out, nil
}

// coerceTables coerces a batch body's answers, one per argument row, to the
// declared schema, their headers from one slice.
func coerceTables(name string, res []*types.Table, n int, target types.Schema) ([]*types.Table, error) {
	if len(res) != n {
		return nil, fmt.Errorf("catalog: %s batch body returned %d tables for %d rows", name, len(res), n)
	}
	heads := make([]types.Table, len(res))
	out := make([]*types.Table, len(res))
	for i, t := range res {
		var err error
		if heads[i], err = coerceTable(t, target); err != nil {
			return nil, fmt.Errorf("catalog: %s result: %w", name, err)
		}
		out[i] = &heads[i]
	}
	return out, nil
}

// coerceTable conforms t to the target schema (arity must match): a header,
// which the caller places, with the target's columns over t's rows, of
// which only those a cast changes are copied. t itself is not written.
func coerceTable(t *types.Table, target types.Schema) (types.Table, error) {
	if len(t.Schema) != len(target) {
		return types.Table{}, fmt.Errorf("catalog: result has %d columns, declared %d", len(t.Schema), len(target))
	}
	rows, err := types.ConformRows(t.Rows, target)
	if err != nil {
		return types.Table{}, err
	}
	return types.Table{Schema: target, Rows: rows}, nil
}

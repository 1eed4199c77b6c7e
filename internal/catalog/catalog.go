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
	"sort"
	"strings"
	"sync"

	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/storage"
	"fedwf/internal/types"
)

// QueryRunner executes a nested SELECT with bound parameters under the
// statement context. It is implemented by the engine and handed to table
// functions so SQL UDTF bodies can run without the catalog depending on the
// executor.
type QueryRunner interface {
	RunSelectContext(ctx context.Context, sel *sqlparser.Select, params map[string]types.Value, task *simlat.Task) (*types.Table, error)
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

// Store exposes the table store (used by the engine's DML executor).
func (c *Catalog) Store() *storage.Store { return c.store }

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
	return c.store.Create(name, schema)
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
	return nil
}

// Virtual returns the named virtual table, or nil when absent.
func (c *Catalog) Virtual(name string) *VirtualTable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.virtuals[strings.ToLower(name)]
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
func (c *Catalog) DropTable(name string) error { return c.store.Drop(name) }

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
	f, ok := c.funcs[strings.ToLower(name)]
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
	return nil
}

// Nickname returns the named nickname, or nil when absent.
func (c *Catalog) Nickname(name string) *Nickname {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nicknames[strings.ToLower(name)]
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
	return nil
}

// View returns the named view's query, or nil when absent.
func (c *Catalog) View(name string) *sqlparser.Select {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.views[strings.ToLower(name)]
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
// UDTF. Its body runs through the engine's QueryRunner with the call
// arguments bound as FnName.ParamName references.
type SQLFunc struct {
	FName    string
	FParams  []types.Column
	FReturns types.Schema
	Body     *sqlparser.Select
	// Hooks let the UDTF layer charge simulated costs around the body.
	BeforeInvoke func(task *simlat.Task)
	AfterInvoke  func(task *simlat.Task)
	// BatchBody, when set, is a hand-written set-oriented realization of
	// the function: one call receives all argument rows of a batch and
	// answers one table per row. The per-row SQL body stays the reference
	// semantics; BatchBody is the optimized path a batched plan uses.
	BatchBody func(ctx context.Context, rt QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error)
}

// Name implements TableFunc.
func (f *SQLFunc) Name() string { return f.FName }

// Params implements TableFunc.
func (f *SQLFunc) Params() []types.Column { return f.FParams }

// Schema implements TableFunc.
func (f *SQLFunc) Schema() types.Schema { return f.FReturns }

// InvokeContext implements TableFunc: it binds the arguments, runs the body
// under the statement context, and coerces the result to the declared
// RETURNS TABLE schema.
func (f *SQLFunc) InvokeContext(ctx context.Context, rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	if len(args) != len(f.FParams) {
		return nil, fmt.Errorf("catalog: %s expects %d arguments, got %d", f.FName, len(f.FParams), len(args))
	}
	if rt == nil {
		return nil, fmt.Errorf("catalog: %s needs a query runner", f.FName)
	}
	// Parameters are visible both bare (SupplierNo) and qualified by the
	// function name (BuySuppComp.SupplierNo), matching the paper's DB2
	// examples.
	params := make(map[string]types.Value, 2*len(args))
	for i, p := range f.FParams {
		v, err := types.Cast(args[i], p.Type)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s parameter %s: %w", f.FName, p.Name, err)
		}
		params[strings.ToLower(p.Name)] = v
		params[strings.ToLower(f.FName)+"."+strings.ToLower(p.Name)] = v
	}
	if f.BeforeInvoke != nil {
		f.BeforeInvoke(task)
	}
	res, err := rt.RunSelectContext(ctx, f.Body, params, task)
	if err != nil {
		return nil, fmt.Errorf("catalog: executing %s: %w", f.FName, err)
	}
	out, err := coerceTable(res, f.FReturns)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s result: %w", f.FName, err)
	}
	if f.AfterInvoke != nil {
		f.AfterInvoke(task)
	}
	return out, nil
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
	cast := make([][]types.Value, len(rows))
	for i, args := range rows {
		if len(args) != len(f.FParams) {
			return nil, fmt.Errorf("catalog: %s expects %d arguments, got %d", f.FName, len(f.FParams), len(args))
		}
		cr := make([]types.Value, len(args))
		for j, p := range f.FParams {
			v, err := types.Cast(args[j], p.Type)
			if err != nil {
				return nil, fmt.Errorf("catalog: %s parameter %s: %w", f.FName, p.Name, err)
			}
			cr[j] = v
		}
		cast[i] = cr
	}
	res, err := f.BatchBody(ctx, rt, task, cast)
	if err != nil {
		return nil, fmt.Errorf("catalog: executing %s: %w", f.FName, err)
	}
	if len(res) != len(rows) {
		return nil, fmt.Errorf("catalog: %s batch body returned %d tables for %d rows", f.FName, len(res), len(rows))
	}
	out := make([]*types.Table, len(res))
	for i, t := range res {
		ct, err := coerceTable(t, f.FReturns)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s result: %w", f.FName, err)
		}
		out[i] = ct
	}
	return out, nil
}

// GoFunc is a host-implemented table function (LANGUAGE EXTERNAL): the
// mechanism behind access UDTFs, Go integration UDTFs, and the workflow
// UDTF.
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
	if len(args) != len(f.FParams) {
		return nil, fmt.Errorf("catalog: %s expects %d arguments, got %d", f.FName, len(f.FParams), len(args))
	}
	cast := make([]types.Value, len(args))
	for i, p := range f.FParams {
		v, err := types.Cast(args[i], p.Type)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s parameter %s: %w", f.FName, p.Name, err)
		}
		cast[i] = v
	}
	var res *types.Table
	var err error
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
	return out, nil
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
	cast := make([][]types.Value, len(rows))
	for i, args := range rows {
		if len(args) != len(f.FParams) {
			return nil, fmt.Errorf("catalog: %s expects %d arguments, got %d", f.FName, len(f.FParams), len(args))
		}
		cr := make([]types.Value, len(args))
		for j, p := range f.FParams {
			v, err := types.Cast(args[j], p.Type)
			if err != nil {
				return nil, fmt.Errorf("catalog: %s parameter %s: %w", f.FName, p.Name, err)
			}
			cr[j] = v
		}
		cast[i] = cr
	}
	res, err := f.FnBatchCtx(ctx, rt, task, cast)
	if err != nil {
		return nil, err
	}
	if len(res) != len(rows) {
		return nil, fmt.Errorf("catalog: %s batch body returned %d tables for %d rows", f.FName, len(res), len(rows))
	}
	out := make([]*types.Table, len(res))
	for i, t := range res {
		ct, err := coerceTable(t, f.FReturns)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s result: %w", f.FName, err)
		}
		out[i] = ct
	}
	return out, nil
}

// coerceTable casts every row of t to the target schema (arity must
// match); column names are taken from the target.
func coerceTable(t *types.Table, target types.Schema) (*types.Table, error) {
	if len(t.Schema) != len(target) {
		return nil, fmt.Errorf("catalog: result has %d columns, declared %d", len(t.Schema), len(target))
	}
	out := types.NewTable(target.Clone())
	for _, r := range t.Rows {
		cr, err := types.CoerceRow(r, target)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, cr)
	}
	return out, nil
}

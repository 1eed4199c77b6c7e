// Package appsys simulates the paper's encapsulated application systems:
// packaged software whose data is reachable only through predefined
// functions, never through SQL. Three systems populate the purchasing
// scenario of Sect. 1:
//
//   - the stock-keeping system (components in stock, supplier quality),
//   - the product data management system (bill of material),
//   - the purchasing system (suppliers, reliability, discounts).
//
// Each system owns a private store (built on the same storage engine the
// FDBS uses, but reachable exclusively through its function interface) and
// a set of local functions with declared signatures and per-call service
// times.
package appsys

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/storage"
	"fedwf/internal/types"
)

// Function is one predefined local function of an application system.
type Function struct {
	Name        string
	Params      []types.Column
	Returns     types.Schema
	ServiceTime time.Duration // simulated execution time per call
	Impl        func(sys *System, args []types.Value) (*types.Table, error)
}

// System is one application system.
type System struct {
	name  string
	store *storage.Store
	funcs map[string]*Function
}

// NewSystem creates an application system with an empty private store.
func NewSystem(name string) *System {
	return &System{name: name, store: storage.NewStore(), funcs: make(map[string]*Function)}
}

// Name returns the system name.
func (s *System) Name() string { return s.name }

// Store exposes the private store for scenario setup. Integration layers
// never touch it; the encapsulation property is what forces function
// access in the first place.
func (s *System) Store() *storage.Store { return s.store }

// Register installs a local function.
func (s *System) Register(f *Function) error {
	key := strings.ToLower(f.Name)
	if _, ok := s.funcs[key]; ok {
		return fmt.Errorf("appsys: %s already provides %s", s.name, f.Name)
	}
	s.funcs[key] = f
	return nil
}

// Function returns a registered function by name.
func (s *System) Function(name string) (*Function, error) {
	f, ok := s.funcs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("appsys: system %s has no function %s", s.name, name)
	}
	return f, nil
}

// Functions lists the system's function names in sorted order.
func (s *System) Functions() []string {
	out := make([]string, 0, len(s.funcs))
	for _, f := range s.funcs {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// CallContext invokes a local function: the statement deadline is checked
// first, arguments are cast to the declared parameter types, the service
// time is charged to the task, and the result is coerced to the declared
// return schema.
func (s *System) CallContext(ctx context.Context, task *simlat.Task, name string, args []types.Value) (out *types.Table, err error) {
	if err := resil.Check(ctx, task); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(task, "appsys.call",
		obs.Attr{Key: "system", Value: s.name}, obs.Attr{Key: "fn", Value: name})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	f, err := s.Function(name)
	if err != nil {
		return nil, err
	}
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("appsys: %s.%s expects %d arguments, got %d", s.name, f.Name, len(f.Params), len(args))
	}
	cast := make([]types.Value, len(args))
	for i, p := range f.Params {
		v, err := types.Cast(args[i], p.Type)
		if err != nil {
			return nil, fmt.Errorf("appsys: %s.%s parameter %s: %w", s.name, f.Name, p.Name, err)
		}
		cast[i] = v
	}
	task.Spend(f.ServiceTime)
	res, err := f.Impl(s, cast)
	if err != nil {
		return nil, fmt.Errorf("appsys: %s.%s: %w", s.name, f.Name, err)
	}
	out = types.NewTable(f.Returns.Clone())
	for _, r := range res.Rows {
		cr, err := types.CoerceRow(r, f.Returns)
		if err != nil {
			return nil, fmt.Errorf("appsys: %s.%s result: %w", s.name, f.Name, err)
		}
		out.Rows = append(out.Rows, cr)
	}
	return out, nil
}

// CallBatchContext invokes a local function once per argument row under a
// single batch span. Batching amortizes the wire and workflow overheads
// upstream; the per-row service time is intrinsic to the function and is
// still charged for every row.
func (s *System) CallBatchContext(ctx context.Context, task *simlat.Task, name string, rows [][]types.Value) (out []*types.Table, err error) {
	sp := obs.StartSpan(task, "appsys.call.batch",
		obs.Attr{Key: "system", Value: s.name}, obs.Attr{Key: "fn", Value: name},
		obs.Attr{Key: "batch_size", Value: fmt.Sprint(len(rows))})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	out = make([]*types.Table, len(rows))
	for i, args := range rows {
		res, err := s.CallContext(ctx, task, name, args)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// Registry is the set of reachable application systems.
type Registry struct {
	systems map[string]*System
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{systems: make(map[string]*System)} }

// Add registers a system.
func (r *Registry) Add(s *System) error {
	key := strings.ToLower(s.name)
	if _, ok := r.systems[key]; ok {
		return fmt.Errorf("appsys: system %s already registered", s.name)
	}
	r.systems[key] = s
	return nil
}

// System returns a registered system.
func (r *Registry) System(name string) (*System, error) {
	s, ok := r.systems[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("appsys: no system named %s", name)
	}
	return s, nil
}

// Systems lists the registered system names in sorted order.
func (r *Registry) Systems() []string {
	out := make([]string, 0, len(r.systems))
	for _, s := range r.systems {
		out = append(out, s.name)
	}
	sort.Strings(out)
	return out
}

// CallContext routes an invocation to the named system. An unknown system
// is a permanent resil.AppSysError (never retried); function-level errors
// pass through untouched.
func (r *Registry) CallContext(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
	s, err := r.System(system)
	if err != nil {
		return nil, &resil.AppSysError{System: system, Transient: false, Err: err}
	}
	return s.CallContext(ctx, task, function, args)
}

// CallBatchContext routes a batch to the named system (resolved once for
// the whole batch); an unknown system is a permanent resil.AppSysError.
func (r *Registry) CallBatchContext(ctx context.Context, task *simlat.Task, system, function string, rows [][]types.Value) ([]*types.Table, error) {
	s, err := r.System(system)
	if err != nil {
		return nil, &resil.AppSysError{System: system, Transient: false, Err: err}
	}
	return s.CallBatchContext(ctx, task, function, rows)
}

// Resolve finds the unique system providing the named function; the
// integration layers use it so mappings can name functions without
// spelling out their hosting system.
func (r *Registry) Resolve(function string) (*System, *Function, error) {
	var foundSys *System
	var foundFn *Function
	for _, s := range r.systems {
		if f, err := s.Function(function); err == nil {
			if foundSys != nil {
				return nil, nil, fmt.Errorf("appsys: function %s is provided by both %s and %s", function, foundSys.name, s.name)
			}
			foundSys, foundFn = s, f
		}
	}
	if foundSys == nil {
		return nil, nil, fmt.Errorf("appsys: no system provides function %s", function)
	}
	return foundSys, foundFn, nil
}

// Handler adapts the registry to the RPC substrate.
func (r *Registry) Handler() rpc.Handler {
	return func(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, error) {
		if req.System == "" {
			sys, _, err := r.Resolve(req.Function)
			if err != nil {
				return nil, &resil.AppSysError{System: "fn:" + req.Function, Transient: false, Err: err}
			}
			return sys.CallContext(ctx, task, req.Function, req.Args)
		}
		return r.CallContext(ctx, task, req.System, req.Function, req.Args)
	}
}

// BatchHandler adapts the registry's set-oriented entry point to the RPC
// substrate, so one wire request can carry a whole batch.
func (r *Registry) BatchHandler() rpc.BatchHandler {
	return func(ctx context.Context, task *simlat.Task, req rpc.BatchRequest) ([]*types.Table, error) {
		if req.System == "" {
			sys, _, err := r.Resolve(req.Function)
			if err != nil {
				return nil, &resil.AppSysError{System: "fn:" + req.Function, Transient: false, Err: err}
			}
			return sys.CallBatchContext(ctx, task, req.Function, req.Rows)
		}
		return r.CallBatchContext(ctx, task, req.System, req.Function, req.Rows)
	}
}

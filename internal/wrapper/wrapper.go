// Package wrapper implements the SQL/MED-style wrappers that attach
// foreign data sources to the FDBS (Database Languages — SQL — Part 9:
// Management of External Data, working draft, as cited by the paper).
//
// Two wrapper implementations exist:
//
//   - the SQL wrapper, which federates remote SQL engines: CREATE SERVER
//     connects (in-process or over TCP), CREATE NICKNAME imports remote
//     table schemas, and the planner pushes single-server subqueries down
//     through the wrapper;
//   - the workflow UDTF registration in package udtf plays the paper's
//     "unified wrapper" role towards the WfMS (no product supported
//     SQL/MED wrappers in 2002, hence the UDTF detour — reproduced
//     faithfully here).
package wrapper

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"fedwf/internal/catalog"
	"fedwf/internal/engine"
	"fedwf/internal/obs"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// SQLWrapperName is the name under which the SQL wrapper is linked into
// an engine (CREATE WRAPPER sqlwrapper).
const SQLWrapperName = "sqlwrapper"

// Protocol function names used between the wrapper and a remote engine.
const (
	fnQuery  = "query"
	fnSchema = "schema"
)

// NewRemoteHandler exposes an engine as a remote SQL source: the handler
// answers "query" (one SELECT statement text) and "schema" (a table name)
// requests. It is the server half of the SQL wrapper.
func NewRemoteHandler(eng *engine.Engine) rpc.Handler {
	return func(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, error) {
		switch strings.ToLower(req.Function) {
		case fnQuery:
			if len(req.Args) != 1 {
				return nil, fmt.Errorf("wrapper: query expects one argument")
			}
			text, err := req.Args[0].AsString()
			if err != nil {
				return nil, err
			}
			sel, err := sqlparser.ParseSelect(text)
			if err != nil {
				return nil, err
			}
			return eng.RunSelectContext(ctx, sel, nil, task)
		case fnSchema:
			if len(req.Args) != 1 {
				return nil, fmt.Errorf("wrapper: schema expects one argument")
			}
			name, err := req.Args[0].AsString()
			if err != nil {
				return nil, err
			}
			tab, err := eng.Catalog().Table(name)
			if err != nil {
				return nil, err
			}
			out := types.NewTable(types.Schema{
				{Name: "ColumnName", Type: types.VarChar},
				{Name: "TypeName", Type: types.VarChar},
			})
			for _, c := range tab.Schema() {
				out.MustAppend(types.Row{types.NewString(c.Name), types.NewString(c.Type.String())})
			}
			return out, nil
		default:
			return nil, fmt.Errorf("wrapper: unknown protocol function %s", req.Function)
		}
	}
}

// RemoteServer is the catalog.ForeignServer produced by the SQL wrapper:
// a handle to one remote SQL engine.
type RemoteServer struct {
	name    string
	client  rpc.Client
	perCall simlat.Profile // charges RMI hops per remote interaction
	charge  bool
}

// NewRemoteServer wraps an RPC client as a foreign server. When profile
// charging is enabled, every remote interaction pays one RMI round trip.
func NewRemoteServer(name string, client rpc.Client, profile simlat.Profile, chargeHops bool) *RemoteServer {
	return &RemoteServer{name: name, client: client, perCall: profile, charge: chargeHops}
}

// Name implements catalog.ForeignServer.
func (r *RemoteServer) Name() string { return r.name }

// TableSchemaContext implements catalog.ForeignServer: schema
// discovery honours the caller's deadline and cancellation.
func (r *RemoteServer) TableSchemaContext(ctx context.Context, remote string) (types.Schema, error) {
	res, err := r.call(ctx, nil, fnSchema, types.NewString(remote))
	if err != nil {
		return nil, err
	}
	schema := make(types.Schema, 0, res.Len())
	for _, row := range res.Rows {
		t, err := types.ParseType(row[1].Str())
		if err != nil {
			return nil, fmt.Errorf("wrapper: remote column %s: %w", row[0].Str(), err)
		}
		schema = append(schema, types.Column{Name: row[0].Str(), Type: t})
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("wrapper: remote table %s has no columns", remote)
	}
	return schema, nil
}

// QueryContext implements catalog.ForeignServer: it ships the
// pushed-down statement text to the remote engine, carrying the
// statement's deadline across the wire.
func (r *RemoteServer) QueryContext(ctx context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, error) {
	return r.call(ctx, task, fnQuery, types.NewString(sel.String()))
}

func (r *RemoteServer) call(ctx context.Context, task *simlat.Task, fn string, arg types.Value) (out *types.Table, err error) {
	sp := obs.StartSpan(task, "wrapper.remote", obs.Attr{Key: "server", Value: r.name}, obs.Attr{Key: "op", Value: fn})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	if r.charge {
		task.Step(simlat.StepRMICall, r.perCall.RMICall)
		defer task.Step(simlat.StepRMIReturn, r.perCall.RMIReturn)
	}
	return r.client.Call(ctx, task, rpc.Request{System: r.name, Function: fn, Args: []types.Value{arg}})
}

// Close releases the underlying client.
func (r *RemoteServer) Close() error { return r.client.Close() }

// Registry maps logical remote names to dialable endpoints; the SQL
// wrapper factory consults it when CREATE SERVER runs.
type Registry struct {
	mu      sync.Mutex
	inproc  map[string]rpc.Handler
	profile simlat.Profile
}

// NewRegistry creates a wrapper registry with the given cost profile.
func NewRegistry(profile simlat.Profile) *Registry {
	return &Registry{inproc: make(map[string]rpc.Handler), profile: profile}
}

// AddInProc registers an in-process remote engine under a target name.
func (r *Registry) AddInProc(target string, eng *engine.Engine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inproc[strings.ToLower(target)] = NewRemoteHandler(eng)
}

// Factory returns the catalog.WrapperFactory for CREATE SERVER. Options:
//
//	target '<name>'  — an in-process engine registered with AddInProc
//	address '<host:port>' — a TCP remote served by rpc.Server
//	charge 'hops' — charge RMI costs per remote interaction
func (r *Registry) Factory() catalog.WrapperFactory {
	return func(serverName string, options map[string]string) (catalog.ForeignServer, error) {
		charge := options["charge"] == "hops"
		if target, ok := options["target"]; ok {
			r.mu.Lock()
			h, found := r.inproc[strings.ToLower(target)]
			r.mu.Unlock()
			if !found {
				return nil, fmt.Errorf("wrapper: no in-process target %q", target)
			}
			return NewRemoteServer(serverName, rpc.NewInProc(h), r.profile, charge), nil
		}
		if addr, ok := options["address"]; ok {
			client, err := rpc.DialMux(addr)
			if err != nil {
				return nil, fmt.Errorf("wrapper: dialing %s: %w", addr, err)
			}
			return NewRemoteServer(serverName, client, r.profile, charge), nil
		}
		return nil, fmt.Errorf("wrapper: CREATE SERVER needs a target or address option")
	}
}

// Link registers the SQL wrapper implementation with an engine, making
// CREATE WRAPPER sqlwrapper available.
func (r *Registry) Link(eng *engine.Engine) error {
	return eng.RegisterWrapperImpl(SQLWrapperName, r.Factory())
}

package fedfunc

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/catalog"
	"fedwf/internal/controller"
	"fedwf/internal/engine"
	"fedwf/internal/obs/stats"
	"fedwf/internal/resil"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
	"fedwf/internal/udtf"
	"fedwf/internal/wfms"
)

// Arch identifies an integration architecture.
type Arch int

// The two measured architectures of Sect. 4.
const (
	// ArchWfMS is the workflow approach: FDBS -> workflow UDTF ->
	// controller -> WfMS -> application systems.
	ArchWfMS Arch = iota
	// ArchUDTF is the enhanced SQL UDTF approach: FDBS -> SQL I-UDTF ->
	// A-UDTFs -> controller -> application systems.
	ArchUDTF
)

// String names the architecture as in the paper.
func (a Arch) String() string {
	if a == ArchWfMS {
		return "WfMS approach"
	}
	return "enhanced SQL UDTF approach"
}

// Label is the compact form used as a metric label value.
func (a Arch) Label() string {
	if a == ArchWfMS {
		return "wfms"
	}
	return "udtf"
}

// Stack is one fully wired integration architecture: an FDBS engine with
// the federated functions of the mapping catalog registered the
// architecture's way, in front of the shared application systems.
type Stack struct {
	arch       Arch
	engine     *engine.Engine
	bridge     *controller.Bridge
	instrument *udtf.Instrument
	profile    simlat.Profile
	supported  map[string]bool
	guard      *resil.Executor

	// rpcCalls counts wire requests to the application systems (one per
	// Call and one per CallBatch, so batching N rows is ONE request);
	// wfInstances counts started workflow process instances. Both feed the
	// set-orientation experiment (E13).
	rpcCalls    *atomic.Int64
	wfInstances *atomic.Int64
}

// Options configures stack construction.
type Options struct {
	Profile simlat.Profile
	// Direct removes the controller from the call path (experiment E7).
	Direct bool
	// Apps is the shared application-system registry; a fresh scenario is
	// built when nil.
	Apps *appsys.Registry
	// AppsClient overrides how the stack reaches the application systems:
	// pass an rpc.Dial client to place them in another process (real
	// distribution; wall-clock semantics only, since a remote callee
	// cannot charge this process's virtual meter). When nil, an in-process
	// client over Apps is used.
	AppsClient rpc.Client
	// Retry and Breaker guard every application-system call the stack
	// makes; zero values disable the respective mechanism.
	Retry   resil.RetryPolicy
	Breaker resil.BreakerPolicy
	// Faults, when non-nil, injects deterministic faults on
	// application-system calls (inside the retry loop, so each attempt
	// re-rolls).
	Faults *resil.Injector
	// Observer receives retry/breaker/shed/timeout events for metrics.
	Observer resil.Observer
	// StmtTimeout is the default per-statement virtual deadline; zero
	// disables it.
	StmtTimeout time.Duration
	// PartialResults lets optional lateral branches degrade to NULL
	// padding (with warnings) when their application system is shedding.
	PartialResults bool
}

// NewStack wires one architecture.
func NewStack(arch Arch, opts Options) (*Stack, error) {
	profile := opts.Profile
	if profile == (simlat.Profile{}) {
		profile = simlat.DefaultProfile()
	}
	apps := opts.Apps
	if apps == nil {
		var err error
		apps, err = appsys.BuildScenario()
		if err != nil {
			return nil, err
		}
	}
	appsClient := opts.AppsClient
	if appsClient == nil {
		appsClient = rpc.NewInProcBatch(apps.Handler(), apps.BatchHandler())
	}
	// Guard order matters: fault injection sits inside the retry loop, so
	// every retry attempt re-rolls the fault plan; the breaker observes
	// post-injection outcomes like a real client would.
	if opts.Faults != nil {
		appsClient = rpc.WithFaults(appsClient, opts.Faults)
	}
	var guard *resil.Executor
	if opts.Retry.Enabled() || opts.Breaker.Enabled() {
		guard = resil.NewExecutor(opts.Retry, opts.Breaker)
		guard.SetObserver(opts.Observer)
		appsClient = rpc.Guard(appsClient, guard)
	}
	rpcCalls := new(atomic.Int64)
	appsClient = &countingClient{inner: appsClient, n: rpcCalls}
	wfEngine := wfms.New(rpcInvoker{c: appsClient}, wfms.CostsFromProfile(profile))
	wfInstances := new(atomic.Int64)
	wfEngine.SetProcessObserver(func(ctx context.Context) {
		wfInstances.Add(1)
		stats.FromContext(ctx).AddInstance()
	})
	ctl := controller.New(profile, wfEngine, appsClient)
	var bridge *controller.Bridge
	if opts.Direct {
		bridge = controller.NewDirectBridge(profile, ctl)
	} else {
		bridge = controller.NewBridge(profile, ctl)
	}

	s := &Stack{
		arch: arch,
		engine: engine.New(
			engine.WithCompositionCost(profile.JoinComposition),
			engine.WithRetryPolicy(opts.Retry),
			engine.WithStatementTimeout(opts.StmtTimeout),
			engine.WithPartialResults(opts.PartialResults),
		),
		bridge:      bridge,
		instrument:  udtf.NewInstrument(profile),
		profile:     profile,
		supported:   make(map[string]bool),
		guard:       guard,
		rpcCalls:    rpcCalls,
		wfInstances: wfInstances,
	}
	specs := Specs()
	switch arch {
	case ArchWfMS:
		for _, spec := range specs {
			if err := udtf.RegisterWorkflowUDTF(s.engine, bridge, s.instrument, spec.Process()); err != nil {
				return nil, fmt.Errorf("fedfunc: registering %s: %w", spec.Name, err)
			}
			s.supported[strings.ToLower(spec.Name)] = true
		}
	case ArchUDTF:
		if err := s.registerAccessUDTFs(apps); err != nil {
			return nil, err
		}
		for _, spec := range specs {
			if !spec.SupportsUDTF() {
				continue // the cyclic case: no SQL realisation
			}
			if err := udtf.RegisterSQLIntegrationUDTF(s.engine, s.instrument, spec.SQLDefinition); err != nil {
				return nil, fmt.Errorf("fedfunc: registering %s: %w", spec.Name, err)
			}
			s.supported[strings.ToLower(spec.Name)] = true
		}
		// The trivial case gets a hand-written set-oriented realization:
		// batched plans drive the A-UDTF's batch path, so a whole chunk
		// costs one I-UDTF entry, one A-UDTF entry, and one RPC round trip.
		if err := s.registerGibKompNrBatch(); err != nil {
			return nil, err
		}
		// The Go I-UDTF variants (enhanced Java UDTF architecture) ride on
		// the same A-UDTFs.
		for _, spec := range specs {
			if spec.GoBody == nil {
				continue
			}
			name := spec.Name + "_Go"
			if err := udtf.RegisterGoIntegrationUDTF(s.engine, s.instrument, name,
				spec.Params, spec.Returns, udtf.GoBody(spec.GoBody)); err != nil {
				return nil, fmt.Errorf("fedfunc: registering %s: %w", name, err)
			}
			s.supported[strings.ToLower(name)] = true
		}
	default:
		return nil, fmt.Errorf("fedfunc: unknown architecture %d", arch)
	}
	return s, nil
}

// registerGibKompNrBatch installs the set-oriented realization of the
// trivial-case SQL I-UDTF: all KompName rows of a chunk forward to the
// GetCompNo A-UDTF's own batch path in one call, and each per-row result
// is projected onto the federated signature (No -> KompNr), mirroring the
// SQL body's SELECT list.
func (s *Stack) registerGibKompNrBatch() error {
	getCompNo, err := s.engine.Catalog().Func("GetCompNo")
	if err != nil {
		return err
	}
	returns := types.Schema{{Name: "KompNr", Type: types.Integer}}
	body := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
		tabs, err := catalog.InvokeFuncBatch(ctx, getCompNo, rt, task, rows)
		if err != nil {
			return nil, err
		}
		out := make([]*types.Table, len(tabs))
		for i, tab := range tabs {
			pt := &types.Table{Schema: returns.Clone(), Rows: make([]types.Row, 0, len(tab.Rows))}
			for _, r := range tab.Rows {
				pt.Rows = append(pt.Rows, types.Row{r[0]})
			}
			out[i] = pt
		}
		return out, nil
	}
	return udtf.SetSQLBatchRealization(s.engine, s.instrument, "GibKompNr", body)
}

// countingClient counts wire requests leaving the stack: each Call and
// each CallBatch increments by ONE, so batching N rows shows up as a
// single request. The count sits outside the guard, measuring logical
// round trips rather than retry attempts.
type countingClient struct {
	inner rpc.Client
	n     *atomic.Int64
}

func (c *countingClient) Call(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, error) {
	c.n.Add(1)
	stats.FromContext(ctx).AddRPC()
	return c.inner.Call(ctx, task, req)
}

// CallMeta implements rpc.MetaCaller when the wrapped client does.
func (c *countingClient) CallMeta(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, map[string]string, error) {
	c.n.Add(1)
	stats.FromContext(ctx).AddRPC()
	if mc, ok := c.inner.(rpc.MetaCaller); ok {
		return mc.CallMeta(ctx, task, req)
	}
	res, err := c.inner.Call(ctx, task, req)
	if err != nil {
		return nil, nil, err
	}
	return res, map[string]string{}, nil
}

// CallBatch implements rpc.BatchCaller: one increment for the whole set,
// degrading to per-row calls only below this layer when the transport
// cannot batch.
func (c *countingClient) CallBatch(ctx context.Context, task *simlat.Task, req rpc.BatchRequest) ([]*types.Table, error) {
	c.n.Add(1)
	stats.FromContext(ctx).AddRPC()
	return rpc.CallBatch(ctx, task, c.inner, req)
}

func (c *countingClient) Close() error { return c.inner.Close() }

// rpcInvoker adapts the stack's application-system client to the workflow
// engine's invoker interfaces, including the set-oriented path.
type rpcInvoker struct{ c rpc.Client }

func (iv rpcInvoker) Invoke(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
	return iv.c.Call(ctx, task, rpc.Request{System: system, Function: function, Args: args})
}

// InvokeBatch implements wfms.BatchInvoker.
func (iv rpcInvoker) InvokeBatch(ctx context.Context, task *simlat.Task, system, function string, rows [][]types.Value) ([]*types.Table, error) {
	return rpc.CallBatch(ctx, task, iv.c, rpc.BatchRequest{System: system, Function: function, Rows: rows})
}

// registerAccessUDTFs creates one A-UDTF per local function of every
// application system, under the local function's own name.
func (s *Stack) registerAccessUDTFs(apps *appsys.Registry) error {
	for _, sysName := range apps.Systems() {
		sys, err := apps.System(sysName)
		if err != nil {
			return err
		}
		for _, fnName := range sys.Functions() {
			fn, err := sys.Function(fnName)
			if err != nil {
				return err
			}
			if err := udtf.RegisterAccessUDTF(s.engine, s.bridge, s.instrument,
				fn.Name, sysName, fn.Name, fn.Params, fn.Returns); err != nil {
				return fmt.Errorf("fedfunc: A-UDTF %s: %w", fn.Name, err)
			}
		}
	}
	return nil
}

// Arch returns the stack's architecture.
func (s *Stack) Arch() Arch { return s.arch }

// RegisterProcess installs an additional federated function from a
// workflow process template (WfMS stacks only); the experiment harness
// uses it for parameterised loop-scaling processes.
func (s *Stack) RegisterProcess(p *wfms.Process) error {
	if s.arch != ArchWfMS {
		return fmt.Errorf("fedfunc: %s cannot host workflow processes", s.arch)
	}
	if err := udtf.RegisterWorkflowUDTF(s.engine, s.bridge, s.instrument, p); err != nil {
		return err
	}
	s.supported[strings.ToLower(p.Name)] = true
	return nil
}

// Engine exposes the stack's FDBS engine (for examples and ad-hoc SQL).
func (s *Stack) Engine() *engine.Engine { return s.engine }

// WorkflowEngine exposes the workflow engine behind the stack's
// controller, so callers can attach observers to it.
func (s *Stack) WorkflowEngine() *wfms.Engine { return s.bridge.Controller().WorkflowEngine() }

// Profile returns the cost profile the stack was built with.
func (s *Stack) Profile() simlat.Profile { return s.profile }

// Supports reports whether the architecture realises the named federated
// function.
func (s *Stack) Supports(name string) bool { return s.supported[strings.ToLower(name)] }

// Flush discards cached state down to the given boot level; a cold flush
// also drops the controller's warm WfMS connection.
func (s *Stack) Flush(level udtf.BootLevel) {
	s.instrument.Flush(level)
	if level == udtf.FlushCold {
		s.bridge.Reset()
	}
}

// Guard exposes the resilience executor guarding the stack's
// application-system calls (nil when neither retries nor breaking are
// configured).
func (s *Stack) Guard() *resil.Executor { return s.guard }

// Counters returns the number of application-system wire requests and
// started workflow process instances since construction or the last
// ResetCounters. A batched call of N rows counts as ONE request, and a
// batch mapped onto one process instance counts as ONE instance — the
// quantities experiment E13 asserts on.
func (s *Stack) Counters() (rpcCalls, wfInstances int64) {
	return s.rpcCalls.Load(), s.wfInstances.Load()
}

// ResetCounters zeroes the RPC and workflow-instance counters.
func (s *Stack) ResetCounters() {
	s.rpcCalls.Store(0)
	s.wfInstances.Store(0)
}

// CallContext invokes a federated function through the full stack: the
// statement "SELECT * FROM TABLE (Fn(args...)) AS R" enters the FDBS,
// whose executor drives the architecture's UDTF. The statement runs under
// any deadline or retry budget carried on ctx.
func (s *Stack) CallContext(ctx context.Context, task *simlat.Task, name string, args []types.Value) (*types.Table, error) {
	if !s.Supports(name) {
		return nil, fmt.Errorf("fedfunc: %s does not support %s", s.arch, name)
	}
	lits := make([]string, len(args))
	for i, v := range args {
		lits[i] = v.String()
	}
	sql := fmt.Sprintf("SELECT * FROM TABLE (%s(%s)) AS R", name, strings.Join(lits, ", "))
	session := s.engine.NewSession()
	session.SetTask(task)
	return session.QueryContext(ctx, sql)
}

// CallSpecContext invokes a spec's federated function with one of its
// sample argument vectors under ctx.
func (s *Stack) CallSpecContext(ctx context.Context, task *simlat.Task, spec *Spec, sampleIdx int) (*types.Table, error) {
	if sampleIdx < 0 || sampleIdx >= len(spec.SampleArgs) {
		return nil, fmt.Errorf("fedfunc: %s has no sample %d", spec.Name, sampleIdx)
	}
	return s.CallContext(ctx, task, spec.Name, spec.SampleArgs[sampleIdx])
}

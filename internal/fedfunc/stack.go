package fedfunc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/controller"
	"fedwf/internal/engine"
	"fedwf/internal/obs"
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

	// rpcCalls counts wire requests to the application systems (one per
	// Call and one per CallBatch, so batching N rows is ONE request);
	// instBase is the workflow engine's instance count at the last
	// ResetCounters. Both feed the set-orientation experiment (E13).
	rpcCalls *atomic.Int64
	instBase atomic.Int64
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
		appsClient = rpc.Guard(appsClient, guard)
	}
	rpcCalls := new(atomic.Int64)
	appsClient = &countingClient{inner: appsClient, n: rpcCalls}
	wfEngine := wfms.New(rpcInvoker{c: appsClient}, wfms.CostsFromProfile(profile))
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
		bridge:     bridge,
		instrument: udtf.NewInstrument(profile),
		profile:    profile,
		supported:  make(map[string]bool),
		rpcCalls:   rpcCalls,
	}
	if arch == ArchUDTF {
		if err := s.registerAccessUDTFs(apps); err != nil {
			return nil, err
		}
	} else if arch != ArchWfMS {
		return nil, fmt.Errorf("fedfunc: unknown architecture %d", arch)
	}
	for _, spec := range Specs() {
		if err := s.register(spec); err != nil {
			return nil, fmt.Errorf("fedfunc: registering %s: %w", spec.Name, err)
		}
	}
	return s, nil
}

// register installs one compiled mapping: its process on the WfMS stack;
// its SQL I-UDTF (if any, with its batch form) and Go I-UDTF on the UDTF
// stack.
func (s *Stack) register(spec *Spec) error {
	if s.arch == ArchWfMS {
		return s.RegisterProcess(spec.Process())
	}
	if spec.SupportsUDTF() {
		if err := udtf.RegisterSQLIntegrationUDTF(s.engine, s.instrument, spec.SQLDefinition); err != nil {
			return err
		}
		if err := spec.graph.registerBatch(s.engine, s.instrument); err != nil {
			return err
		}
		s.supported[strings.ToLower(spec.Name)] = true
	}
	if spec.GoBody != nil {
		name := spec.Name + "_Go"
		if err := udtf.RegisterGoIntegrationUDTF(s.engine, s.instrument, name,
			spec.Params, spec.Returns, udtf.GoBody(spec.GoBody)); err != nil {
			return err
		}
		s.supported[strings.ToLower(name)] = true
	}
	return nil
}

// countingClient counts wire requests leaving the stack: each Call and
// each CallBatch increments by ONE, so batching N rows shows up as a
// single request. The count sits outside the guard, measuring logical
// round trips rather than retry attempts. Every request passes here,
// guarded or not, so it is also where a request that gives up on the
// statement deadline is counted, once, under the breaker's key.
type countingClient struct {
	inner rpc.Client
	n     *atomic.Int64
}

func (c *countingClient) Call(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, error) {
	c.n.Add(1)
	obs.FromContext(ctx).AddRPC()
	res, err := c.inner.Call(ctx, task, req)
	countTimeout(ctx, req, err)
	return res, err
}

// CallBatch implements rpc.BatchCaller: one increment for the whole set,
// degrading to per-row calls only below this layer when the transport
// cannot batch.
func (c *countingClient) CallBatch(ctx context.Context, task *simlat.Task, req rpc.BatchRequest) ([]*types.Table, error) {
	c.n.Add(1)
	obs.FromContext(ctx).AddRPC()
	res, err := rpc.CallBatch(ctx, task, c.inner, req)
	countTimeout(ctx, rpc.Request{System: req.System, Function: req.Function}, err)
	return res, err
}

// countTimeout counts a request that ended in resil.ErrTimeout against its
// application system.
func countTimeout(ctx context.Context, req rpc.Request, err error) {
	if errors.Is(err, resil.ErrTimeout) {
		obs.FromContext(ctx).AddFault(obs.FaultTimeout, rpc.GuardKey(req))
	}
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

// Flush discards cached state down to the given boot level: a warm or
// cold flush drops the engine's function body plans, so the next calls
// plan their bodies again as they are charged PrepareMiss again, and a
// cold flush also drops the controller's warm WfMS connection.
func (s *Stack) Flush(level udtf.BootLevel) {
	s.instrument.Flush(level)
	if level != udtf.FlushHot {
		s.engine.DropBodyPlans()
	}
	if level == udtf.FlushCold {
		s.bridge.Reset()
	}
}

// Counters returns the number of application-system wire requests and
// started workflow process instances since construction or the last
// ResetCounters. A batched call of N rows counts as ONE request, and a
// batch mapped onto one process instance counts as ONE instance — the
// quantities experiment E13 asserts on.
func (s *Stack) Counters() (rpcCalls, wfInstances int64) {
	return s.rpcCalls.Load(), s.WorkflowEngine().Instances() - s.instBase.Load()
}

// ResetCounters zeroes the RPC and workflow-instance counters.
func (s *Stack) ResetCounters() {
	s.rpcCalls.Store(0)
	s.instBase.Store(s.WorkflowEngine().Instances())
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
	return s.engine.NewSessionOn(task).QueryContext(ctx, sql)
}

// CallSpecContext invokes a spec's federated function with one of its
// sample argument vectors under ctx.
func (s *Stack) CallSpecContext(ctx context.Context, task *simlat.Task, spec *Spec, sampleIdx int) (*types.Table, error) {
	if sampleIdx < 0 || sampleIdx >= len(spec.SampleArgs) {
		return nil, fmt.Errorf("fedfunc: %s has no sample %d", spec.Name, sampleIdx)
	}
	return s.CallContext(ctx, task, spec.Name, spec.SampleArgs[sampleIdx])
}

// Package controller implements the paper's controller process (Sect. 4):
// a long-lived bridge between the UDTF processes and the rest of the
// integration server. DB2's fenced-UDTF security restrictions forced the
// prototype to route every UDTF call through this extra process; it also
// keeps the connection to the workflow engine warm so integration UDTFs
// do not reconnect on every call.
//
// The Bridge type models how a UDTF reaches the controller: via simulated
// RMI hops (the measured configuration) or directly (the "assume we can
// implement our prototypes without the controller" ablation, experiment
// E7). Removing the controller removes the RMI hops to it and its own
// processing time — 8% of the WfMS architecture's elapsed time but 25% of
// the UDTF architecture's, moving their ratio from 3 to 3.7.
package controller

import (
	"context"
	"strconv"
	"sync"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
	"fedwf/internal/wfms"
)

// Controller is the long-lived bridge process.
type Controller struct {
	profile simlat.Profile
	wf      *wfms.Engine
	apps    rpc.Client

	mu        sync.Mutex
	connected bool
}

// New creates a controller in front of a workflow engine and an
// application-system endpoint.
func New(profile simlat.Profile, wf *wfms.Engine, apps rpc.Client) *Controller {
	return &Controller{profile: profile, wf: wf, apps: apps}
}

// WorkflowEngine returns the workflow engine behind the controller.
func (c *Controller) WorkflowEngine() *wfms.Engine { return c.wf }

// ensureConnected charges the one-time connect cost: the controller is
// started once when the environment boots, connects to the WfMS, and
// keeps it active.
func (c *Controller) ensureConnected(task *simlat.Task) {
	c.mu.Lock()
	wasConnected := c.connected
	c.connected = true
	c.mu.Unlock()
	if !wasConnected {
		sp := obs.StartSpan(task, "controller.connect")
		task.Step(simlat.StepController, c.profile.ControllerConnect)
		sp.End(task)
	}
}

// Reset drops the warm state, as after a reboot of the whole environment
// (the cold measurement of experiment E4).
func (c *Controller) Reset() {
	c.mu.Lock()
	c.connected = false
	c.mu.Unlock()
}

// RunWorkflow starts a workflow process instance on behalf of a UDTF,
// charging the controller's own work.
func (c *Controller) RunWorkflow(ctx context.Context, task *simlat.Task, p *wfms.Process, input map[string]types.Value) (out *types.Table, err error) {
	sp := obs.StartSpan(task, "controller.run-workflow", obs.Attr{Key: "process", Value: p.Name})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	if err := resil.Check(ctx, task); err != nil {
		return nil, err
	}
	c.ensureConnected(task)
	task.Step(simlat.StepController, c.profile.ControllerInvokeWf)
	return c.wf.RunContext(ctx, task, p, input)
}

// RunWorkflowBatch starts ONE workflow process instance for a whole batch
// of input containers: the controller's invocation work is paid once, and
// the engine amortizes the instance start across the rows.
func (c *Controller) RunWorkflowBatch(ctx context.Context, task *simlat.Task, p *wfms.Process, inputs []map[string]types.Value) (out []*types.Table, err error) {
	sp := obs.StartSpan(task, "controller.run-workflow.batch",
		obs.Attr{Key: "process", Value: p.Name},
		obs.Attr{Key: "batch_size", Value: strconv.Itoa(len(inputs))})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	if err := resil.Check(ctx, task); err != nil {
		return nil, err
	}
	c.ensureConnected(task)
	task.Step(simlat.StepController, c.profile.ControllerInvokeWf)
	return c.wf.RunBatchContext(ctx, task, p, inputs)
}

// CallFunction dispatches one local-function call of an access UDTF. In
// the UDTF architecture the controller is already running, so dispatch is
// cheap — the paper measures the three controller runs of GetNoSuppComp
// at ~0% of elapsed time.
func (c *Controller) CallFunction(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (out *types.Table, err error) {
	sp := obs.StartSpan(task, "controller.call", obs.Attr{Key: "system", Value: system}, obs.Attr{Key: "function", Value: function})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	if err := resil.Check(ctx, task); err != nil {
		return nil, err
	}
	c.ensureConnected(task)
	task.Step(simlat.StepControllerRuns, c.profile.ControllerDispatch)
	return c.apps.Call(ctx, task, rpc.Request{System: system, Function: function, Args: args})
}

// CallFunctionBatch dispatches one set-oriented local-function call: one
// controller dispatch and one wire request carry the whole batch.
func (c *Controller) CallFunctionBatch(ctx context.Context, task *simlat.Task, system, function string, rows [][]types.Value) (out []*types.Table, err error) {
	sp := obs.StartSpan(task, "controller.call.batch",
		obs.Attr{Key: "system", Value: system}, obs.Attr{Key: "function", Value: function},
		obs.Attr{Key: "batch_size", Value: strconv.Itoa(len(rows))})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	if err := resil.Check(ctx, task); err != nil {
		return nil, err
	}
	c.ensureConnected(task)
	task.Step(simlat.StepControllerRuns, c.profile.ControllerDispatch)
	return rpc.CallBatch(ctx, task, c.apps, rpc.BatchRequest{System: system, Function: function, Rows: rows})
}

// Bridge is the UDTF-side view of the controller. With the controller
// enabled every call pays the RMI round trip plus the controller's work;
// in direct mode (the E7 ablation) the UDTF reaches the workflow engine
// and the application systems itself and those costs disappear.
type Bridge struct {
	profile simlat.Profile
	ctl     *Controller
	direct  bool
}

// NewBridge wires a UDTF layer to the controller.
func NewBridge(profile simlat.Profile, ctl *Controller) *Bridge {
	return &Bridge{profile: profile, ctl: ctl}
}

// NewDirectBridge builds the no-controller configuration.
func NewDirectBridge(profile simlat.Profile, ctl *Controller) *Bridge {
	return &Bridge{profile: profile, ctl: ctl, direct: true}
}

// Direct reports whether the bridge bypasses the controller.
func (b *Bridge) Direct() bool { return b.direct }

// Controller returns the controller behind the bridge.
func (b *Bridge) Controller() *Controller { return b.ctl }

// RunWorkflow executes a workflow process through the controller (or
// directly against the workflow engine in the ablation).
func (b *Bridge) RunWorkflow(ctx context.Context, task *simlat.Task, p *wfms.Process, input map[string]types.Value) (*types.Table, error) {
	if b.direct {
		return b.ctl.wf.RunContext(ctx, task, p, input)
	}
	task.Step(simlat.StepRMICall, b.profile.RMICall)
	out, err := b.ctl.RunWorkflow(ctx, task, p, input)
	task.Step(simlat.StepRMIReturn, b.profile.RMIReturn)
	return out, err
}

// RunWorkflowBatch executes one workflow process instance for a whole
// batch through the controller: a single RMI round trip carries the set.
func (b *Bridge) RunWorkflowBatch(ctx context.Context, task *simlat.Task, p *wfms.Process, inputs []map[string]types.Value) ([]*types.Table, error) {
	if b.direct {
		return b.ctl.wf.RunBatchContext(ctx, task, p, inputs)
	}
	task.Step(simlat.StepRMICall, b.profile.RMICall)
	out, err := b.ctl.RunWorkflowBatch(ctx, task, p, inputs)
	task.Step(simlat.StepRMIReturn, b.profile.RMIReturn)
	return out, err
}

// CallFunction invokes one local function through the controller (or
// directly in the ablation).
func (b *Bridge) CallFunction(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
	if b.direct {
		return b.ctl.apps.Call(ctx, task, rpc.Request{System: system, Function: function, Args: args})
	}
	task.Step(simlat.StepRMICall, b.profile.RMICall)
	out, err := b.ctl.CallFunction(ctx, task, system, function, args)
	task.Step(simlat.StepRMIReturn, b.profile.RMIReturn)
	return out, err
}

// CallFunctionBatch invokes one local function for a whole batch through
// the controller: a single RMI round trip carries the set.
func (b *Bridge) CallFunctionBatch(ctx context.Context, task *simlat.Task, system, function string, rows [][]types.Value) ([]*types.Table, error) {
	if b.direct {
		return rpc.CallBatch(ctx, task, b.ctl.apps, rpc.BatchRequest{System: system, Function: function, Rows: rows})
	}
	task.Step(simlat.StepRMICall, b.profile.RMICall)
	out, err := b.ctl.CallFunctionBatch(ctx, task, system, function, rows)
	task.Step(simlat.StepRMIReturn, b.profile.RMIReturn)
	return out, err
}

// Reset forwards to the controller.
func (b *Bridge) Reset() { b.ctl.Reset() }

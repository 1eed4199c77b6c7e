package wfms

import (
	"context"
	"fmt"
	"strings"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// RunBatchContext executes a process once for a whole batch of input
// containers: ONE process instance absorbs all rows, so the instance-start
// cost is paid once per batch instead of once per row — the paper's
// do-until block turned inward.
//
// When the process shape allows (an unconditional DAG of function and
// helper activities), execution is fully vectorized: each activity boots
// once for the batch, its per-row argument bindings flatten into a single
// set-oriented invocation (one RPC when the invoker supports
// BatchInvoker), and the results are split back per row. Processes with
// blocks, conditional connectors, or OR-joins fall back to looping the
// rows through the navigator inside the same single instance — still one
// instance start, just no activity amortization.
//
// The returned slice has one output table per input row. Errors fail the
// whole batch, matching the RPC layer's batch semantics.
func (e *Engine) RunBatchContext(ctx context.Context, task *simlat.Task, p *Process, inputs []map[string]types.Value) (out []*types.Table, err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(task, "wfms.process.batch",
		obs.Attr{Key: "process", Value: p.Name},
		obs.Attr{Key: "batch_size", Value: fmt.Sprint(len(inputs))})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	st := e.newRunState(ctx, task)
	// One instance start for the whole batch.
	task.Step(simlat.StepStartWorkflow, e.costs.StartProcess)
	if vectorizable(p) {
		out, err = e.runVectorized(ctx, task, p, inputs, st)
	} else {
		// Fallback: the single instance loops the rows through the
		// navigator; audit entries carry the row driving each pass.
		out = make([]*types.Table, len(inputs))
		for i, input := range inputs {
			st.setRow(i)
			res, rerr := e.runProcess(ctx, task, p, input, st)
			if rerr != nil {
				out, err = nil, rerr
				break
			}
			out[i] = res
		}
		st.setRow(-1)
	}
	rows := 0
	for _, t := range out {
		if t != nil {
			rows += t.Len()
		}
	}
	st.finish(task, p.Name, len(inputs), rows, err)
	return out, err
}

// vectorizable reports whether the process is an unconditional DAG of
// function and helper activities: every row takes the same path, so
// activities can process the whole batch in one pass.
func vectorizable(p *Process) bool {
	for _, n := range p.Nodes {
		switch n.(type) {
		case *FunctionActivity, *HelperActivity:
		default:
			return false
		}
	}
	for _, cc := range p.Flow {
		if cc.Condition != nil {
			return false
		}
	}
	return true
}

// runVectorized executes each activity once for the whole batch, in
// topological order. Per activity: one navigate charge, one boot, the
// per-row bindings flattened into one set-oriented invocation, results
// split back per row.
func (e *Engine) runVectorized(ctx context.Context, task *simlat.Task, p *Process, inputs []map[string]types.Value, st *runState) ([]*types.Table, error) {
	// Per-row output containers, keyed by lowercase node name.
	rowOutputs := make([]map[string]*types.Table, len(inputs))
	for i := range rowOutputs {
		rowOutputs[i] = make(map[string]*types.Table, len(p.Nodes))
	}
	for _, node := range topoOrder(p) {
		if err := resil.Check(ctx, task); err != nil {
			return nil, err
		}
		sp := obs.StartSpan(task, "wfms.activity.batch",
			obs.Attr{Key: "node", Value: node.NodeName()},
			obs.Attr{Key: "batch_size", Value: fmt.Sprint(len(inputs))})
		// The navigator visits the activity once for the whole batch.
		task.Step(simlat.StepWorkflowEngine, e.costs.Navigate)
		st.record(task.Elapsed(), node.NodeName(), "started", 0)
		var err error
		switch a := node.(type) {
		case *FunctionActivity:
			err = e.runFunctionActivityBatch(ctx, task, a, inputs, rowOutputs, st)
		case *HelperActivity:
			err = e.runHelperActivityBatch(task, a, inputs, rowOutputs, st)
		default:
			err = fmt.Errorf("wfms: unexpected node type %T in vectorized run", node)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End(task)
			return nil, fmt.Errorf("wfms: activity %s: %w", node.NodeName(), err)
		}
		sp.End(task)
	}
	// Assemble each row's output container from the result node.
	out := make([]*types.Table, len(inputs))
	resKey := strings.ToLower(p.Result)
	for i := range inputs {
		final := types.NewTable(p.Output.Clone())
		resOut := rowOutputs[i][resKey]
		if resOut != nil {
			if len(resOut.Schema) != len(p.Output) {
				return nil, fmt.Errorf("wfms: process %s: result node %s produced %d columns, output container has %d",
					p.Name, p.Result, len(resOut.Schema), len(p.Output))
			}
			for _, r := range resOut.Rows {
				cr, err := types.CoerceRow(r, p.Output)
				if err != nil {
					return nil, fmt.Errorf("wfms: process %s output: %w", p.Name, err)
				}
				final.Rows = append(final.Rows, cr)
			}
		}
		out[i] = final
	}
	return out, nil
}

// runFunctionActivityBatch boots the activity program once, flattens every
// row's argument bindings into one set-oriented invocation, and splits the
// results back onto the rows.
func (e *Engine) runFunctionActivityBatch(ctx context.Context, task *simlat.Task, a *FunctionActivity, inputs []map[string]types.Value, rowOutputs []map[string]*types.Table, st *runState) error {
	prev := task.SetLabel(simlat.StepActivities)
	defer task.SetLabel(prev)
	// One program start and one container-handling pass for the batch.
	task.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	var flat [][]types.Value
	perRow := make([]int, len(inputs)) // bindings contributed by each row; -1 = no data
	for i, input := range inputs {
		bindings, empty, err := bindingRows(a.Args, input, rowOutputs[i])
		if err != nil {
			return err
		}
		if empty {
			perRow[i] = -1
			continue
		}
		perRow[i] = len(bindings)
		flat = append(flat, bindings...)
	}
	var results []*types.Table
	if len(flat) > 0 {
		var err error
		results, err = invokeBatch(ctx, e.invoker, task, a.System, a.Function, flat)
		if err != nil {
			return err
		}
	}
	pos := 0
	key := strings.ToLower(a.Name)
	at := task.Elapsed()
	for i, n := range perRow {
		if n < 0 {
			rowOutputs[i][key] = nil // no data: dependents see an empty source
			st.recordRow(at, a.Name, "skipped", 0, i)
			continue
		}
		var union *types.Table
		for j := 0; j < n; j++ {
			res := results[pos]
			pos++
			if union == nil {
				union = res
			} else {
				union.Rows = append(union.Rows, res.Rows...)
			}
		}
		rowOutputs[i][key] = union
		rows := 0
		if union != nil {
			rows = union.Len()
		}
		st.recordRow(at, a.Name, "completed", rows, i)
	}
	return nil
}

// runHelperActivityBatch boots the helper once and runs its body per row
// (helper bodies are local Go transforms; only the boot is amortized).
func (e *Engine) runHelperActivityBatch(task *simlat.Task, a *HelperActivity, inputs []map[string]types.Value, rowOutputs []map[string]*types.Table, st *runState) error {
	prev := task.SetLabel(simlat.StepActivities)
	defer task.SetLabel(prev)
	task.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	key := strings.ToLower(a.Name)
	for i, input := range inputs {
		in := make(map[string]*types.Table, len(rowOutputs[i])+1)
		for k, v := range rowOutputs[i] {
			if v == nil {
				v = &types.Table{}
			}
			in[k] = v
		}
		in["INPUT"] = inputTable(input)
		out, err := a.Fn(in)
		if err != nil {
			return err
		}
		rowOutputs[i][key] = out
		rows := 0
		if out != nil {
			rows = out.Len()
		}
		st.recordRow(task.Elapsed(), a.Name, "completed", rows, i)
	}
	return nil
}

// topoOrder returns the process nodes in a deterministic topological
// order (declaration order among ready nodes).
func topoOrder(p *Process) []Node {
	pending := make(map[string]int, len(p.Nodes))
	for _, n := range p.Nodes {
		pending[strings.ToLower(n.NodeName())] = len(p.predecessors(n.NodeName()))
	}
	order := make([]Node, 0, len(p.Nodes))
	done := make(map[string]bool, len(p.Nodes))
	for len(order) < len(p.Nodes) {
		progressed := false
		for _, n := range p.Nodes {
			key := strings.ToLower(n.NodeName())
			if done[key] || pending[key] != 0 {
				continue
			}
			done[key] = true
			order = append(order, n)
			for _, cc := range p.successors(n.NodeName()) {
				pending[strings.ToLower(cc.To)]--
			}
			progressed = true
		}
		if !progressed {
			// Unreachable: Validate rejects cyclic processes.
			break
		}
	}
	return order
}

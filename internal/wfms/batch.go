package wfms

import (
	"context"
	"fmt"
	"strconv"

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
	t, err := e.template(p)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(task, "wfms.process.batch",
		obs.Attr{Key: "process", Value: p.Name},
		obs.Attr{Key: "batch_size", Value: strconv.Itoa(len(inputs))})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(task)
	}()
	// A vectorised activity starts once and settles per row; the
	// fallback navigates every row.
	events := (1 + len(inputs)) * len(t.nodes)
	if !t.vector {
		events = 2 * len(inputs) * len(t.nodes)
	}
	st := e.newRunState(ctx, task, events)
	// One instance start for the whole batch.
	task.Step(simlat.StepStartWorkflow, e.costs.StartProcess)
	if t.vector {
		out, err = e.runVectorized(ctx, task, t, inputs, st)
	} else {
		// Fallback: the single instance loops the rows through the
		// navigator; audit entries carry the row driving each pass.
		out = make([]*types.Table, len(inputs))
		for i, input := range inputs {
			st.setRow(i)
			res, rerr := e.runProcess(ctx, task, t, input, st)
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
func (e *Engine) runVectorized(ctx context.Context, task *simlat.Task, t *template, inputs []map[string]types.Value, st *runState) ([]*types.Table, error) {
	// Row r's output containers are slots[r*n : (r+1)*n].
	n := len(t.nodes)
	slots := make([]slot, len(inputs)*n)
	size := strconv.Itoa(len(inputs))
	for _, i := range t.order {
		nd := &t.nodes[i]
		if err := resil.Check(ctx, task); err != nil {
			return nil, err
		}
		sp := obs.StartSpan(task, "wfms.activity.batch",
			obs.Attr{Key: "node", Value: nd.name},
			obs.Attr{Key: "batch_size", Value: size})
		// The navigator visits the activity once for the whole batch.
		task.Step(simlat.StepWorkflowEngine, e.costs.Navigate)
		st.record(task.Elapsed(), nd.name, "started", 0)
		var err error
		switch a := nd.node.(type) {
		case *FunctionActivity:
			err = e.runFunctionActivityBatch(ctx, task, t, i, inputs, slots, st)
		case *HelperActivity:
			err = e.runHelperActivityBatch(task, t, i, a, inputs, slots, st)
		default:
			err = fmt.Errorf("wfms: unexpected node type %T in vectorized run", nd.node)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End(task)
			return nil, fmt.Errorf("wfms: activity %s: %w", nd.name, err)
		}
		sp.End(task)
	}
	// Assemble each row's output container from the result node, the
	// headers from one slice.
	heads := make([]types.Table, len(inputs))
	out := make([]*types.Table, len(inputs))
	for r := range inputs {
		var err error
		if heads[r], err = t.output(slots[r*n+t.result].out); err != nil {
			return nil, err
		}
		out[r] = &heads[r]
	}
	return out, nil
}

// runFunctionActivityBatch boots activity i's program once, flattens every
// row's argument bindings into one set-oriented invocation, and splits the
// results back onto the rows.
func (e *Engine) runFunctionActivityBatch(ctx context.Context, task *simlat.Task, t *template, i int, inputs []map[string]types.Value, slots []slot, st *runState) error {
	nd := &t.nodes[i]
	a := nd.node.(*FunctionActivity)
	prev := task.SetLabel(simlat.StepActivities)
	defer task.SetLabel(prev)
	// One program start and one container-handling pass for the batch.
	task.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	// Every row's argument vectors go into one slab, then one flat list.
	n, w := len(t.nodes), len(nd.args)
	vals := make([]types.Value, 0, len(inputs)*w)
	perRow := make([]int, len(inputs)) // vectors bound by each row; 0 = no data
	total := 0
	for r, input := range inputs {
		var err error
		vals, perRow[r], err = nd.appendBindings(vals, input, slots[r*n:(r+1)*n])
		if err != nil {
			return err
		}
		total += perRow[r]
	}
	flat := make([][]types.Value, total)
	for c := range flat {
		flat[c] = vector(vals, c, w)
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
	at := task.Elapsed()
	for r, k := range perRow {
		s := &slots[r*n+i]
		s.done = true
		if k == 0 {
			// No data: dependents see an empty source.
			st.recordRow(at, nd.name, "skipped", 0, r)
			continue
		}
		var u union
		for _, res := range results[pos : pos+k] {
			u.add(res)
		}
		pos += k
		s.out = u.t
		rows := 0
		if u.t != nil {
			rows = u.t.Len()
		}
		st.recordRow(at, nd.name, "completed", rows, r)
	}
	return nil
}

// runHelperActivityBatch boots helper i once and runs its body per row
// (helper bodies are local Go transforms; only the boot is amortized). The
// answers the body builds share the chunk's slab, row slice and headers.
func (e *Engine) runHelperActivityBatch(task *simlat.Task, t *template, i int, a *HelperActivity, inputs []map[string]types.Value, slots []slot, st *runState) error {
	prev := task.SetLabel(simlat.StepActivities)
	defer task.SetLabel(prev)
	task.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	n := len(t.nodes)
	ch := &answers{n: len(inputs)}
	if i == t.result {
		ch.width = len(t.p.Output)
	}
	for r, input := range inputs {
		row := slots[r*n : (r+1)*n]
		out, err := a.Fn(Containers{t: t, outputs: row, input: input, chunk: ch, row: r})
		if err != nil {
			return err
		}
		row[i] = slot{out: out, done: true}
		rows := 0
		if out != nil {
			rows = out.Len()
		}
		st.recordRow(task.Elapsed(), a.Name, "completed", rows, r)
	}
	return nil
}

package wfms

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// Engine executes workflow process templates.
type Engine struct {
	invoker Invoker
	costs   Costs
	serial  bool
	// instSeq counts started process instances over the engine's lifetime
	// and numbers them; a whole batch shares one instance.
	instSeq atomic.Uint64
}

// New creates a workflow engine around an invoker for local functions.
func New(invoker Invoker, costs Costs) *Engine {
	return &Engine{invoker: invoker, costs: costs}
}

// SetSerial switches off parallel navigation: ready activities run one at
// a time. This is the ablation showing what the paper's parallel-activity
// advantage is worth — with a serial navigator the WfMS loses to the
// sequential variant on the independent case too.
func (e *Engine) SetSerial(serial bool) { e.serial = serial }

// Instances returns the number of process instances started since the
// engine was built. A batched run starts exactly one instance regardless
// of how many rows the batch carries.
func (e *Engine) Instances() int64 { return int64(e.instSeq.Load()) }

// AuditEvent is one entry of a process instance's audit trail.
type AuditEvent = obs.AuditEvent

// RunResult carries the process output plus execution metadata.
type RunResult struct {
	Output     *types.Table
	Audit      []AuditEvent
	Activities int // number of executed (not skipped) activities, across all iterations
}

// RunContext validates and executes a process under the statement context
// and returns its output container.
func (e *Engine) RunContext(ctx context.Context, task *simlat.Task, p *Process, input map[string]types.Value) (*types.Table, error) {
	res, err := e.RunDetailedContext(ctx, task, p, input)
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// RunDetailedContext is RunContext with the audit trail and activity
// count.
func (e *Engine) RunDetailedContext(ctx context.Context, task *simlat.Task, p *Process, input map[string]types.Value) (*RunResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(task, "wfms.process", obs.Attr{Key: "process", Value: p.Name})
	defer sp.End(task)
	st := e.newRunState(ctx, task)
	// Starting the process instance boots the workflow engine's Java
	// environment: a constant cost per call, per the paper's Fig. 6.
	task.Step(simlat.StepStartWorkflow, e.costs.StartProcess)
	out, err := e.runProcess(ctx, task, p, input, st)
	rows := 0
	if out != nil {
		rows = out.Len()
	}
	audit := st.inst.Audit
	sort.Slice(audit, func(i, j int) bool {
		if audit[i].At != audit[j].At {
			return audit[i].At < audit[j].At
		}
		return audit[i].Node < audit[j].Node
	})
	st.finish(task, p.Name, 1, rows, err)
	if err != nil {
		return nil, err
	}
	return &RunResult{Output: out, Audit: audit, Activities: st.inst.Activities}, nil
}

// runState aggregates audit information across (sub-)process runs.
type runState struct {
	mu sync.Mutex
	// inst is the instance's record: its audit trail and executed
	// activities accumulate in it, and finish hands it to the statement.
	inst obs.WorkflowInstance
	row  int // current in-chunk row index; -1 = whole instance
	// cnt is the statement's counters, which count every executed
	// activity beside inst.Activities.
	cnt *obs.StmtCounters
}

// newRunState starts one process instance: it counts the instance, for the
// engine and for the statement ctx carries, numbers it over the engine's
// lifetime, and starts its audit trail, whose executed activities are
// counted for the statement too.
func (e *Engine) newRunState(ctx context.Context, task *simlat.Task) *runState {
	cnt := obs.FromContext(ctx)
	cnt.AddInstance()
	return &runState{
		inst: obs.WorkflowInstance{Seq: e.instSeq.Add(1), Start: task.Elapsed()},
		row:  -1,
		cnt:  cnt,
	}
}

// setRow tags subsequent audit entries with an in-chunk row index (-1
// returns to whole-instance scope). Callers only switch rows between
// navigator runs, never while activity goroutines are live.
func (st *runState) setRow(row int) {
	st.mu.Lock()
	st.row = row
	st.mu.Unlock()
}

func (st *runState) record(at time.Duration, node, event string, rows int) {
	st.mu.Lock()
	st.inst.Audit = append(st.inst.Audit, AuditEvent{At: at, Node: node, Event: event, Rows: rows, Row: st.row})
	st.mu.Unlock()
}

// recordRow is record with an explicit row index — the vectorized batch
// path attributes split results to rows without flipping shared state.
func (st *runState) recordRow(at time.Duration, node, event string, rows, row int) {
	st.mu.Lock()
	st.inst.Audit = append(st.inst.Audit, AuditEvent{At: at, Node: node, Event: event, Rows: rows, Row: row})
	st.mu.Unlock()
}

// finish completes the instance's record and hands it to the statement —
// on both the success and the error path, so failed instances are
// auditable too.
func (st *runState) finish(task *simlat.Task, process string, batch, rows int, err error) {
	st.mu.Lock()
	in := &st.inst
	in.Process, in.Batch, in.Rows, in.Dur = process, batch, rows, task.Elapsed()-in.Start
	if err != nil {
		in.Err = err.Error()
	}
	st.mu.Unlock()
	st.cnt.FinishInstance(in)
}

func (st *runState) countExec() {
	st.mu.Lock()
	st.inst.Activities++
	st.mu.Unlock()
	st.cnt.AddActivity()
}

// completion is one navigator event.
type completion struct {
	node    string
	out     *types.Table // nil means "no data" (empty binding source)
	branch  *simlat.Task
	skipped bool
	err     error
}

// runProcess is the navigator: it dispatches ready nodes into parallel
// goroutines, resolves control connectors as nodes complete (dead-path
// elimination for false transition conditions), and assembles the output
// container from the result node.
func (e *Engine) runProcess(ctx context.Context, task *simlat.Task, p *Process, input map[string]types.Value, st *runState) (*types.Table, error) {
	type nodeState struct {
		unresolved int
		trueCount  int
		dispatched bool
	}
	states := make(map[string]*nodeState, len(p.Nodes))
	for _, n := range p.Nodes {
		states[strings.ToLower(n.NodeName())] = &nodeState{unresolved: len(p.predecessors(n.NodeName()))}
	}

	outputs := make(map[string]*types.Table, len(p.Nodes))
	ends := make(map[string]time.Duration, len(p.Nodes))
	base := task.Elapsed()

	events := make(chan completion)
	running := 0
	var branches []*simlat.Task
	var firstErr error

	// In serial mode activities additionally wait for the previously
	// executed activity to end.
	var lastEnd time.Duration
	var serialQueue []string

	launch := func(name string, startAt time.Duration) {
		if e.serial && lastEnd > startAt {
			startAt = lastEnd
		}
		branch := task.Fork()
		branch.AdvanceTo(startAt)
		branches = append(branches, branch)
		running++
		// Snapshot the containers visible to this activity; the live map
		// keeps changing on the navigator goroutine.
		snapshot := make(map[string]*types.Table, len(outputs))
		for k, v := range outputs {
			snapshot[k] = v
		}
		go func() {
			out, err := e.runNode(ctx, branch, p, name, input, snapshot, st)
			events <- completion{node: name, out: out, branch: branch, err: err}
		}()
	}

	dispatch := func(name string, startAt time.Duration) {
		states[strings.ToLower(name)].dispatched = true
		if e.serial && running > 0 {
			serialQueue = append(serialQueue, name)
			return
		}
		launch(name, startAt)
	}

	// startTimeFor computes the virtual instant a node may begin: the
	// latest end among its predecessors (the process start for entry
	// nodes).
	startTimeFor := func(name string) time.Duration {
		at := base
		for _, cc := range p.predecessors(name) {
			if end, ok := ends[strings.ToLower(cc.From)]; ok && end > at {
				at = end
			}
		}
		return at
	}

	var skipQueue []string
	resolveOutgoing := func(name string, out *types.Table, dead bool) error {
		for _, cc := range p.successors(name) {
			fired := !dead
			if fired && cc.Condition != nil {
				condTable := out
				if condTable == nil {
					condTable = &types.Table{}
				}
				ok, err := cc.Condition(condTable)
				if err != nil {
					return fmt.Errorf("wfms: condition on %s->%s: %w", cc.From, cc.To, err)
				}
				fired = ok
			}
			ts := states[strings.ToLower(cc.To)]
			ts.unresolved--
			if fired {
				ts.trueCount++
			}
			if ts.unresolved == 0 && !ts.dispatched {
				runnable := ts.trueCount > 0
				if p.startCondition(cc.To) == StartAll {
					runnable = ts.trueCount == len(p.predecessors(cc.To))
				}
				if runnable {
					dispatch(cc.To, startTimeFor(cc.To))
				} else {
					skipQueue = append(skipQueue, cc.To)
				}
			}
		}
		return nil
	}

	// Entry nodes are ready immediately.
	for _, n := range p.Nodes {
		if states[strings.ToLower(n.NodeName())].unresolved == 0 {
			dispatch(n.NodeName(), base)
		}
	}

	settled := 0
	for settled < len(p.Nodes) {
		// Drain pending dead paths first; they complete synchronously.
		if len(skipQueue) > 0 {
			name := skipQueue[0]
			skipQueue = skipQueue[1:]
			states[strings.ToLower(name)].dispatched = true
			ends[strings.ToLower(name)] = startTimeFor(name)
			st.record(ends[strings.ToLower(name)], name, "skipped", 0)
			settled++
			if err := resolveOutgoing(name, nil, true); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if running == 0 {
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, fmt.Errorf("wfms: process %s deadlocked with %d unsettled nodes", p.Name, len(p.Nodes)-settled)
		}
		ev := <-events
		running--
		settled++
		key := strings.ToLower(ev.node)
		outputs[key] = ev.out
		ends[key] = ev.branch.Elapsed()
		if ends[key] > lastEnd {
			lastEnd = ends[key]
		}
		if ev.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wfms: activity %s: %w", ev.node, ev.err)
			}
			// Resolve successors dead so the run can drain.
			if err := resolveOutgoing(ev.node, nil, true); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		rows := 0
		if ev.out != nil {
			rows = ev.out.Len()
		}
		st.record(ends[key], ev.node, "completed", rows)
		if err := resolveOutgoing(ev.node, ev.out, false); err != nil && firstErr == nil {
			firstErr = err
		}
		// Serial mode: launch the next queued activity once idle.
		if e.serial && running == 0 && len(serialQueue) > 0 {
			next := serialQueue[0]
			serialQueue = serialQueue[1:]
			launch(next, startTimeFor(next))
		}
	}
	task.Join(branches...)
	if firstErr != nil {
		return nil, firstErr
	}

	// Assemble the output container from the result node.
	resOut := outputs[strings.ToLower(p.Result)]
	final := types.NewTable(p.Output.Clone())
	if resOut == nil {
		return final, nil
	}
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
	return final, nil
}

// runNode executes one node on its own branch task.
func (e *Engine) runNode(ctx context.Context, branch *simlat.Task, p *Process, name string, input map[string]types.Value, outputs map[string]*types.Table, st *runState) (out *types.Table, err error) {
	sp := obs.StartSpan(branch, "wfms.activity", obs.Attr{Key: "node", Value: name})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(branch)
	}()
	if err := resil.Check(ctx, branch); err != nil {
		return nil, err
	}
	st.record(branch.Elapsed(), name, "started", 0)
	node := p.node(name)
	// Navigator bookkeeping per activity.
	branch.Step(simlat.StepWorkflowEngine, e.costs.Navigate)
	switch a := node.(type) {
	case *FunctionActivity:
		return e.runFunctionActivity(ctx, branch, a, input, outputs, st)
	case *HelperActivity:
		return e.runHelperActivity(branch, a, input, outputs, st)
	case *Block:
		return e.runBlock(ctx, branch, a, input, outputs, st)
	default:
		return nil, fmt.Errorf("wfms: unknown node type %T", node)
	}
}

func (e *Engine) runFunctionActivity(ctx context.Context, branch *simlat.Task, a *FunctionActivity, input map[string]types.Value, outputs map[string]*types.Table, st *runState) (*types.Table, error) {
	// Each activity boots a fresh program (the paper's per-activity JVM
	// start) and handles its input and output containers; the local
	// function's own service time is charged by the invoker under the
	// same label.
	prev := branch.SetLabel(simlat.StepActivities)
	defer branch.SetLabel(prev)
	branch.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	bindings, empty, err := bindingRows(a.Args, input, outputs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	if empty {
		return nil, nil // no data: dependent activities see an empty source
	}
	var union *types.Table
	for _, args := range bindings {
		if err := resil.Check(ctx, branch); err != nil {
			return nil, err
		}
		out, err := e.invoker.Invoke(ctx, branch, a.System, a.Function, args)
		if err != nil {
			return nil, err
		}
		if union == nil {
			union = out
		} else {
			union.Rows = append(union.Rows, out.Rows...)
		}
	}
	return union, nil
}

func (e *Engine) runHelperActivity(branch *simlat.Task, a *HelperActivity, input map[string]types.Value, outputs map[string]*types.Table, st *runState) (*types.Table, error) {
	prev := branch.SetLabel(simlat.StepActivities)
	defer branch.SetLabel(prev)
	branch.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	in := make(map[string]*types.Table, len(outputs)+1)
	for k, v := range outputs {
		if v == nil {
			v = &types.Table{}
		}
		in[k] = v
	}
	in["INPUT"] = inputTable(input)
	out, err := a.Fn(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return out, nil
}

func (e *Engine) runBlock(ctx context.Context, branch *simlat.Task, b *Block, input map[string]types.Value, outputs map[string]*types.Table, st *runState) (*types.Table, error) {
	// Assemble the first iteration's input container.
	blockInput := make(map[string]types.Value, len(b.Args))
	for field, src := range b.Args {
		vals, empty, err := sourceValues(src, input, outputs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if empty {
			return nil, nil
		}
		blockInput[strings.ToLower(field)] = vals[0]
	}
	maxIter := b.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	var acc *types.Table
	for iter := 1; ; iter++ {
		if err := resil.Check(ctx, branch); err != nil {
			return nil, err
		}
		out, err := e.runProcess(ctx, branch, b.Body, blockInput, st)
		if err != nil {
			return nil, err
		}
		st.record(branch.Elapsed(), b.Name, "iteration", out.Len())
		if b.Accumulate {
			if acc == nil {
				acc = types.NewTable(out.Schema.Clone())
			}
			acc.Rows = append(acc.Rows, out.Rows...)
		} else {
			acc = out
		}
		if b.Until == nil {
			return acc, nil
		}
		done, err := b.Until(out)
		if err != nil {
			return nil, fmt.Errorf("%s: exit condition: %w", b.Name, err)
		}
		if done {
			return acc, nil
		}
		if iter >= maxIter {
			return nil, fmt.Errorf("wfms: block %s exceeded %d iterations", b.Name, maxIter)
		}
		if b.Feedback != nil {
			next, err := b.Feedback(out)
			if err != nil {
				return nil, fmt.Errorf("%s: feedback: %w", b.Name, err)
			}
			for k, v := range next {
				blockInput[strings.ToLower(k)] = v
			}
		}
	}
}

// sourceValues resolves one Source to its value list. empty reports a
// source whose producing node yielded no data.
func sourceValues(s Source, input map[string]types.Value, outputs map[string]*types.Table) ([]types.Value, bool, error) {
	switch s.Kind {
	case ConstSource:
		return []types.Value{s.Const}, false, nil
	case FromInput:
		v, ok := input[strings.ToLower(s.Column)]
		if !ok {
			return nil, false, fmt.Errorf("wfms: input container has no field %s", s.Column)
		}
		return []types.Value{v}, false, nil
	case FromNode:
		out, ok := outputs[strings.ToLower(s.Node)]
		if !ok {
			return nil, false, fmt.Errorf("wfms: data connector reads %s before it completed", s.Node)
		}
		if out == nil || out.Len() == 0 {
			return nil, true, nil
		}
		ci := out.Schema.ColumnIndex(s.Column)
		if ci < 0 {
			return nil, false, fmt.Errorf("wfms: output container of %s has no field %s", s.Node, s.Column)
		}
		vals := make([]types.Value, out.Len())
		for i, r := range out.Rows {
			vals[i] = r[ci]
		}
		return vals, false, nil
	default:
		return nil, false, fmt.Errorf("wfms: unknown source kind %d", s.Kind)
	}
}

// bindingRows builds the argument vectors for a function activity:
// multi-row sources from the same node stay row-aligned; distinct nodes
// combine by cross product; INPUT fields and constants are scalars.
func bindingRows(args []Source, input map[string]types.Value, outputs map[string]*types.Table) ([][]types.Value, bool, error) {
	if len(args) == 0 {
		return [][]types.Value{nil}, false, nil
	}
	// Group FromNode args by node so same-node columns stay aligned.
	type group struct {
		node string
		rows int
	}
	var groups []group
	groupIdx := make(map[string]int)
	colsPerArg := make([][]types.Value, len(args))
	argGroup := make([]int, len(args))
	for i, s := range args {
		vals, empty, err := sourceValues(s, input, outputs)
		if err != nil {
			return nil, false, err
		}
		if empty {
			return nil, true, nil
		}
		colsPerArg[i] = vals
		if s.Kind == FromNode {
			key := strings.ToLower(s.Node)
			gi, ok := groupIdx[key]
			if !ok {
				gi = len(groups)
				groupIdx[key] = gi
				groups = append(groups, group{node: key, rows: len(vals)})
			}
			if groups[gi].rows != len(vals) {
				return nil, false, fmt.Errorf("wfms: inconsistent row counts from node %s", s.Node)
			}
			argGroup[i] = gi
		} else {
			argGroup[i] = -1
		}
	}
	// Cross product over groups.
	combos := 1
	for _, g := range groups {
		combos *= g.rows
	}
	out := make([][]types.Value, 0, combos)
	idx := make([]int, len(groups))
	for c := 0; c < combos; c++ {
		row := make([]types.Value, len(args))
		for i := range args {
			if gi := argGroup[i]; gi >= 0 {
				row[i] = colsPerArg[i][idx[gi]]
			} else {
				row[i] = colsPerArg[i][0]
			}
		}
		out = append(out, row)
		for gi := len(groups) - 1; gi >= 0; gi-- {
			idx[gi]++
			if idx[gi] < groups[gi].rows {
				break
			}
			idx[gi] = 0
		}
	}
	return out, false, nil
}

// inputTable renders the process input container as a one-row table for
// helper activities.
func inputTable(input map[string]types.Value) *types.Table {
	fields := make([]string, 0, len(input))
	for k := range input {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	schema := make(types.Schema, len(fields))
	row := make(types.Row, len(fields))
	for i, f := range fields {
		v := input[f]
		schema[i] = types.Column{Name: f, Type: types.TypeOf(v)}
		row[i] = v
	}
	t := types.NewTable(schema)
	t.Rows = append(t.Rows, row)
	return t
}

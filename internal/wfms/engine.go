package wfms

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// templates holds each Process compiled at its first run, keyed by
	// the *Process, for the engine's lifetime. A process that fails
	// validation is not stored, so it fails every run.
	templates sync.Map
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

// template returns p compiled, compiling and storing it at p's first run.
func (e *Engine) template(p *Process) (*template, error) {
	if t, ok := e.templates.Load(p); ok {
		return t.(*template), nil
	}
	t, err := compile(p)
	if err != nil {
		return nil, err
	}
	stored, _ := e.templates.LoadOrStore(p, t)
	return stored.(*template), nil
}

// RunContext executes a process under the statement context and returns
// its output container. The process is validated and compiled at its
// first run on the engine.
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
	t, err := e.template(p)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(task, "wfms.process", obs.Attr{Key: "process", Value: p.Name})
	defer sp.End(task)
	// Each node starts and completes (or is skipped, once).
	st := e.newRunState(ctx, task, 2*len(t.nodes))
	// Starting the process instance boots the workflow engine's Java
	// environment: a constant cost per call, per the paper's Fig. 6.
	task.Step(simlat.StepStartWorkflow, e.costs.StartProcess)
	out, err := e.runProcess(ctx, task, t, input, st)
	rows := 0
	if out != nil {
		rows = out.Len()
	}
	audit := st.inst.Audit
	slices.SortStableFunc(audit, func(a, b AuditEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return strings.Compare(a.Node, b.Node)
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
// lifetime, and starts its audit trail, sized for the events it expects,
// whose executed activities are counted for the statement too.
func (e *Engine) newRunState(ctx context.Context, task *simlat.Task, events int) *runState {
	cnt := obs.FromContext(ctx)
	cnt.AddInstance()
	return &runState{
		inst: obs.WorkflowInstance{Seq: e.instSeq.Add(1), Start: task.Elapsed(), Audit: make([]AuditEvent, 0, events)},
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
	node   int
	out    *types.Table // nil means "no data" (empty binding source)
	branch *simlat.Task
	err    error
}

// slot is one node's output container in an instance. A node that has
// settled by running is done, whatever its container (nil: no data).
type slot struct {
	out  *types.Table
	done bool
}

// runProcess is the navigator: it dispatches ready nodes into parallel
// goroutines, resolves control connectors as nodes complete (dead-path
// elimination for false transition conditions), and assembles the output
// container from the result node.
func (e *Engine) runProcess(ctx context.Context, task *simlat.Task, t *template, input map[string]types.Value, st *runState) (*types.Table, error) {
	type nodeState struct {
		unresolved int
		trueCount  int
		dispatched bool
		end        time.Duration // once settled
	}
	n := len(t.nodes)
	states := make([]nodeState, n)
	for i := range states {
		states[i].unresolved = len(t.nodes[i].preds)
	}
	outputs := make([]slot, n)
	base := task.Elapsed()

	events := make(chan completion)
	running := 0
	branches := make([]*simlat.Task, 0, n)
	var firstErr error

	// In serial mode activities additionally wait for the previously
	// executed activity to end.
	var lastEnd time.Duration
	var serialQueue []int

	launch := func(i int, startAt time.Duration) {
		if e.serial && lastEnd > startAt {
			startAt = lastEnd
		}
		branch := task.Fork()
		branch.AdvanceTo(startAt)
		branches = append(branches, branch)
		running++
		view := outputs
		if t.nodes[i].snapshot {
			view = slices.Clone(outputs)
		}
		go func() {
			out, err := e.runNode(ctx, branch, t, i, input, view, st)
			events <- completion{node: i, out: out, branch: branch, err: err}
		}()
	}

	dispatch := func(i int, startAt time.Duration) {
		states[i].dispatched = true
		if e.serial && running > 0 {
			serialQueue = append(serialQueue, i)
			return
		}
		launch(i, startAt)
	}

	// startTimeFor computes the virtual instant a node may begin: the
	// latest end among its predecessors (the process start for entry
	// nodes). A node is ready only once all its predecessors settled.
	startTimeFor := func(i int) time.Duration {
		at := base
		for _, c := range t.nodes[i].preds {
			if end := states[t.conns[c].from].end; end > at {
				at = end
			}
		}
		return at
	}

	var skipQueue []int
	resolveOutgoing := func(i int, out *types.Table, dead bool) error {
		for _, c := range t.nodes[i].succs {
			cc := &t.conns[c]
			fired := !dead
			if fired && cc.cond != nil {
				condTable := out
				if condTable == nil {
					condTable = &types.Table{}
				}
				ok, err := cc.cond(condTable)
				if err != nil {
					return fmt.Errorf("wfms: condition on %s->%s: %w", t.p.Flow[c].From, t.p.Flow[c].To, err)
				}
				fired = ok
			}
			ts := &states[cc.to]
			ts.unresolved--
			if fired {
				ts.trueCount++
			}
			if ts.unresolved == 0 && !ts.dispatched {
				to := &t.nodes[cc.to]
				runnable := ts.trueCount > 0
				if !to.any {
					runnable = ts.trueCount == len(to.preds)
				}
				if runnable {
					dispatch(cc.to, startTimeFor(cc.to))
				} else {
					skipQueue = append(skipQueue, cc.to)
				}
			}
		}
		return nil
	}

	// Entry nodes are ready immediately.
	for i := range states {
		if states[i].unresolved == 0 {
			dispatch(i, base)
		}
	}

	settled := 0
	for settled < n {
		// Drain pending dead paths first; they complete synchronously.
		if len(skipQueue) > 0 {
			i := skipQueue[0]
			skipQueue = skipQueue[1:]
			s := &states[i]
			s.dispatched = true
			s.end = startTimeFor(i)
			st.record(s.end, t.nodes[i].name, "skipped", 0)
			settled++
			if err := resolveOutgoing(i, nil, true); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if running == 0 {
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, fmt.Errorf("wfms: process %s deadlocked with %d unsettled nodes", t.p.Name, n-settled)
		}
		ev := <-events
		running--
		settled++
		outputs[ev.node] = slot{out: ev.out, done: true}
		end := ev.branch.Elapsed()
		states[ev.node].end = end
		if end > lastEnd {
			lastEnd = end
		}
		name := t.nodes[ev.node].name
		if ev.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wfms: activity %s: %w", name, ev.err)
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
		st.record(end, name, "completed", rows)
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
	out, err := t.output(outputs[t.result].out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// output assembles the process output container from the result node's
// container: a header, which the caller places, with the declared output
// schema over the result's rows, of which only those a cast changes are
// copied.
func (t *template) output(res *types.Table) (types.Table, error) {
	p := t.p
	if res == nil {
		return types.Table{Schema: p.Output}, nil
	}
	if len(res.Schema) != len(p.Output) {
		return types.Table{}, fmt.Errorf("wfms: process %s: result node %s produced %d columns, output container has %d",
			p.Name, p.Result, len(res.Schema), len(p.Output))
	}
	rows, err := types.ConformRows(res.Rows, p.Output)
	if err != nil {
		return types.Table{}, fmt.Errorf("wfms: process %s output: %w", p.Name, err)
	}
	return types.Table{Schema: p.Output, Rows: rows}, nil
}

// runNode executes node i on its own branch task.
func (e *Engine) runNode(ctx context.Context, branch *simlat.Task, t *template, i int, input map[string]types.Value, outputs []slot, st *runState) (out *types.Table, err error) {
	nd := &t.nodes[i]
	sp := obs.StartSpan(branch, "wfms.activity", obs.Attr{Key: "node", Value: nd.name})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End(branch)
	}()
	if err := resil.Check(ctx, branch); err != nil {
		return nil, err
	}
	st.record(branch.Elapsed(), nd.name, "started", 0)
	// Navigator bookkeeping per activity.
	branch.Step(simlat.StepWorkflowEngine, e.costs.Navigate)
	switch a := nd.node.(type) {
	case *FunctionActivity:
		return e.runFunctionActivity(ctx, branch, nd, a, input, outputs, st)
	case *HelperActivity:
		return e.runHelperActivity(branch, t, a, input, outputs, st)
	case *Block:
		return e.runBlock(ctx, branch, nd, a, input, outputs, st)
	default:
		return nil, fmt.Errorf("wfms: unknown node type %T", nd.node)
	}
}

func (e *Engine) runFunctionActivity(ctx context.Context, branch *simlat.Task, nd *tnode, a *FunctionActivity, input map[string]types.Value, outputs []slot, st *runState) (*types.Table, error) {
	// Each activity boots a fresh program (the paper's per-activity JVM
	// start) and handles its input and output containers; the local
	// function's own service time is charged by the invoker under the
	// same label.
	prev := branch.SetLabel(simlat.StepActivities)
	defer branch.SetLabel(prev)
	branch.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	vals, combos, err := nd.appendBindings(nil, input, outputs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	if combos == 0 {
		return nil, nil // no data: dependent activities see an empty source
	}
	var u union
	for c := 0; c < combos; c++ {
		if err := resil.Check(ctx, branch); err != nil {
			return nil, err
		}
		out, err := e.invoker.Invoke(ctx, branch, a.System, a.Function, vector(vals, c, len(nd.args)))
		if err != nil {
			return nil, err
		}
		u.add(out)
	}
	return u.t, nil
}

// union is the union of one row's answers, built without writing into an
// answer, which the invoker may share: a single answer is used as it is,
// and a second starts a fresh table that later answers grow.
type union struct {
	t     *types.Table
	owned bool
}

func (u *union) add(out *types.Table) {
	switch {
	case out == nil:
	case u.t == nil:
		u.t = out
	case !u.owned:
		rows := make([]types.Row, 0, len(u.t.Rows)+len(out.Rows))
		u.t = &types.Table{Schema: u.t.Schema, Rows: append(append(rows, u.t.Rows...), out.Rows...)}
		u.owned = true
	default:
		u.t.Rows = append(u.t.Rows, out.Rows...)
	}
}

func (e *Engine) runHelperActivity(branch *simlat.Task, t *template, a *HelperActivity, input map[string]types.Value, outputs []slot, st *runState) (*types.Table, error) {
	prev := branch.SetLabel(simlat.StepActivities)
	defer branch.SetLabel(prev)
	branch.Spend(e.costs.ActivityBoot + e.costs.ContainerHandling)
	st.countExec()

	out, err := a.Fn(Containers{t: t, outputs: outputs, input: input})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return out, nil
}

// Containers is what a helper activity sees of its instance: every done
// node's output container by lower-case node name, and the process input
// container as "INPUT". It reads the instance's containers in place, so it
// is valid only during the call it is passed to.
type Containers struct {
	t       *template
	outputs []slot
	input   map[string]types.Value
	chunk   *answers // the helper's answers in a vectorised batch run, else nil
	row     int      // this row's place in chunk
}

// answers is where a helper's calls for the rows of one vectorised batch
// chunk build what they answer: cells from one slab, rows in one slice and
// headers from one slice, one header a row, each made when a call first
// asks. It lives for one activity of one batch run.
type answers struct {
	n     int // rows in the chunk
	width int // cells of one output row when the helper is the result node, else 0
	slab  types.Slab
	rows  []types.Row
	heads []types.Table
}

// Answer is how a helper builds the table it answers: fill appends the
// rows to rows, carving their cells from slab, and Answer puts a header
// with schema over them. In a vectorised batch run the rows, their cells
// and the header come from the chunk's shared ones (with room for one
// output row for this row and each later one when the helper is the
// process's result node), and the answer's rows are capped, so an append
// by a reader copies. In a per-row run rows and slab are nil, which
// types.Slab treats as no slab. A helper calls Answer at most once a call.
func (c Containers) Answer(schema types.Schema, fill func(rows []types.Row, slab *types.Slab) ([]types.Row, error)) (*types.Table, error) {
	ch := c.chunk
	if ch == nil {
		rows, err := fill(nil, nil)
		if err != nil {
			return nil, err
		}
		return &types.Table{Schema: schema, Rows: rows}, nil
	}
	if ch.heads == nil {
		ch.heads = make([]types.Table, ch.n)
		if ch.width > 0 { // the result node: room for one output row a row
			ch.rows = make([]types.Row, 0, ch.n)
		}
	}
	ch.slab.Reserve((ch.n - c.row) * ch.width)
	n := len(ch.rows)
	rows, err := fill(ch.rows[n:], &ch.slab)
	if err != nil {
		return nil, err
	}
	if len(rows) > 0 && n < cap(ch.rows) && &rows[0] == &ch.rows[:n+1][n] {
		ch.rows = ch.rows[:n+len(rows)] // appended in place: the next row starts after them
	}
	ch.heads[c.row] = types.Table{Schema: schema, Rows: rows[:len(rows):len(rows)]}
	return &ch.heads[c.row], nil
}

// Get returns the container named key: a done node's under its lower-case
// name (an empty table when the node produced no data), or for "INPUT" the
// process input container as a one-row table, built when asked for. A node
// that is not done, or a key that names no node, is absent.
func (c Containers) Get(key string) (*types.Table, bool) {
	if key == "INPUT" {
		return inputTable(c.input), true
	}
	for i := range c.t.nodes {
		if c.t.nodes[i].key != key {
			continue
		}
		s := c.outputs[i]
		if !s.done {
			return nil, false
		}
		if s.out == nil {
			return &types.Table{}, true
		}
		return s.out, true
	}
	return nil, false
}

func (e *Engine) runBlock(ctx context.Context, branch *simlat.Task, nd *tnode, b *Block, input map[string]types.Value, outputs []slot, st *runState) (*types.Table, error) {
	// Assemble the first iteration's input container.
	blockInput := make(map[string]types.Value, len(nd.args))
	for k := range nd.args {
		v, empty, err := nd.args[k].bind(input, outputs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if empty {
			return nil, nil
		}
		blockInput[nd.blockKeys[k]] = v.at(0)
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
		out, err := e.runProcess(ctx, branch, nd.body, blockInput, st)
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
				blockInput[nd.body.fieldKey(k)] = v
			}
		}
	}
}

// binding is one bound argument: a scalar (an input field or a constant),
// or a column of a producing node's container.
type binding struct {
	v   types.Value
	tab *types.Table
	col int
}

// at is the argument's value in row r of its container.
func (b binding) at(r int) types.Value {
	if b.tab == nil {
		return b.v
	}
	return b.tab.Rows[r][b.col]
}

// bind resolves one argument. empty reports a source whose producing node
// yielded no data.
func (a *targ) bind(input map[string]types.Value, outputs []slot) (binding, bool, error) {
	s := a.src
	switch s.Kind {
	case ConstSource:
		return binding{v: s.Const}, false, nil
	case FromInput:
		v, ok := input[a.key]
		if !ok {
			return binding{}, false, fmt.Errorf("wfms: input container has no field %s", s.Column)
		}
		return binding{v: v}, false, nil
	case FromNode:
		out := outputs[a.node]
		if !out.done {
			return binding{}, false, fmt.Errorf("wfms: data connector reads %s before it completed", s.Node)
		}
		if out.out == nil || out.out.Len() == 0 {
			return binding{}, true, nil
		}
		ci := out.out.Schema.ColumnIndex(s.Column)
		if ci < 0 {
			return binding{}, false, fmt.Errorf("wfms: output container of %s has no field %s", s.Node, s.Column)
		}
		return binding{tab: out.out, col: ci}, false, nil
	default:
		return binding{}, false, fmt.Errorf("wfms: unknown source kind %d", s.Kind)
	}
}

// appendBindings appends the argument vectors of a function activity to
// vals, each len(nd.args) values wide: the columns of one producing node
// stay row-aligned, distinct nodes combine by cross product, and INPUT
// fields and constants are scalars. It returns how many vectors it
// appended; none means a source yielded no data.
func (nd *tnode) appendBindings(vals []types.Value, input map[string]types.Value, outputs []slot) ([]types.Value, int, error) {
	args := nd.args
	var bbuf [8]binding
	var gbuf [2 * 8]int
	bound := bbuf[:0]
	if len(args) > len(bbuf) {
		bound = make([]binding, 0, len(args))
	}
	counts := gbuf[:0] // rows per group, then each group's current row
	if 2*nd.groups > len(gbuf) {
		counts = make([]int, 0, 2*nd.groups)
	}
	counts = counts[:2*nd.groups]
	rows, idx := counts[:nd.groups], counts[nd.groups:]
	for i := range args {
		b, empty, err := args[i].bind(input, outputs)
		if err != nil {
			return vals, 0, err
		}
		if empty {
			return vals, 0, nil
		}
		if g := args[i].group; g >= 0 {
			rows[g] = b.tab.Len()
		}
		bound = append(bound, b)
	}
	combos := 1
	for _, r := range rows {
		combos *= r
	}
	if vals == nil {
		vals = make([]types.Value, 0, combos*len(args))
	}
	for c := 0; c < combos; c++ {
		for i := range args {
			r := 0
			if g := args[i].group; g >= 0 {
				r = idx[g]
			}
			vals = append(vals, bound[i].at(r))
		}
		for g := len(idx) - 1; g >= 0; g-- {
			idx[g]++
			if idx[g] < rows[g] {
				break
			}
			idx[g] = 0
		}
	}
	return vals, combos, nil
}

// vector is the c-th argument vector of width w in vals: nil when the
// function takes no argument, and capped so that appending to it copies.
func vector(vals []types.Value, c, w int) []types.Value {
	if w == 0 {
		return nil
	}
	return vals[c*w : (c+1)*w : (c+1)*w]
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

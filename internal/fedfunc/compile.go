package fedfunc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"fedwf/internal/appsys"
	"fedwf/internal/catalog"
	"fedwf/internal/engine"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
	"fedwf/internal/udtf"
	"fedwf/internal/wfms"
)

// graph is an analysed mapping: what the compilers share.
type graph struct {
	m       *Mapping
	index   map[string]int // lower-case alias -> step
	returns []types.Schema // each step's local-function result
	deps    [][]int        // the earlier steps each step reads
	users   []int          // how many later steps read each step
	front   []int          // the steps the result combines: sinks and those the projection or a join reads
	out     types.Schema
}

// analyse checks m against the local functions of reg's systems. A
// step may feed two consumers — later steps, or the result — only if it
// and every step it reads answer at most one row per call: the process
// passes whole containers, so branches forked from a multi-row container
// would meet again as a cross product of rows the lateral join keeps
// apart.
func analyse(m *Mapping, reg *appsys.Registry) (*graph, error) {
	n := len(m.Steps)
	g := &graph{m: m, index: map[string]int{}, deps: make([][]int, n), users: make([]int, n)}
	if n == 0 || len(m.Project) == 0 || m.Loop != nil && (n > 1 || len(m.Joins) > 0) {
		return nil, fmt.Errorf("fedfunc: mapping %s: needs steps and result columns; a loop iterates one step and joins nothing", m.Name)
	}
	step := func(r Ref, before int) int { // the step r reads, or -1
		if i, ok := g.index[strings.ToLower(r.Step)]; ok && i < before && g.returns[i].ColumnIndex(r.Column) >= 0 {
			return i
		}
		return -1
	}
	isParam := func(name string) bool {
		return slices.ContainsFunc(m.Params, func(p types.Column) bool { return strings.EqualFold(p.Name, name) }) ||
			m.Loop != nil && strings.EqualFold(m.Loop.Cursor, name)
	}
	single := make([]bool, n)
	for i, s := range m.Steps {
		key := strings.ToLower(s.Alias)
		if _, dup := g.index[key]; dup || key == "" || strings.EqualFold(s.Alias, m.Name) {
			return nil, fmt.Errorf("fedfunc: mapping %s: bad step alias %q", m.Name, s.Alias)
		}
		sys, fn, err := reg.Resolve(s.Function)
		if err != nil || !strings.EqualFold(sys.Name(), s.System) || len(s.Args) != len(fn.Params) {
			return nil, fmt.Errorf("fedfunc: mapping %s: %s: no function %s.%s of %d arguments", m.Name, s.Alias, s.System, s.Function, len(s.Args))
		}
		single[i] = fn.Single
		for _, a := range s.Args {
			src := a.src
			switch d := step(Ref{src.Node, src.Column}, i); {
			case src.Kind == wfms.FromInput && !isParam(src.Column):
				return nil, fmt.Errorf("fedfunc: mapping %s: no parameter %s", m.Name, src.Column)
			case src.Kind == wfms.FromNode && d < 0:
				return nil, fmt.Errorf("fedfunc: mapping %s: %s reads %s, not a column of an earlier step", m.Name, s.Alias, src)
			case src.Kind == wfms.FromNode && !slices.Contains(g.deps[i], d):
				g.deps[i] = append(g.deps[i], d)
				g.users[d]++
				single[i] = single[i] && single[d]
			}
		}
		g.index[key] = i
		g.returns = append(g.returns, fn.Returns)
	}
	for _, e := range m.After {
		from, okF := g.index[strings.ToLower(e.From)]
		if to, okT := g.index[strings.ToLower(e.To)]; !okF || !okT || from >= to {
			return nil, fmt.Errorf("fedfunc: mapping %s: ordering edge %s -> %s must run forward between steps", m.Name, e.From, e.To)
		}
	}
	read := make([]bool, n)
	refs := make([]Ref, 0, 2*len(m.Joins)+len(m.Project))
	for _, j := range m.Joins {
		refs = append(refs, j.Left, j.Right)
	}
	for _, o := range m.Project {
		refs = append(refs, o.From)
		g.out = append(g.out, types.Column{Name: o.Name, Type: o.Type})
	}
	for _, r := range refs {
		i := step(r, n)
		if i < 0 {
			return nil, fmt.Errorf("fedfunc: mapping %s: no column %s.%s", m.Name, r.Step, r.Column)
		}
		read[i] = true
	}
	for i := range m.Steps {
		consumers := g.users[i]
		if read[i] || consumers == 0 {
			g.front = append(g.front, i)
			consumers++
		}
		if consumers > 1 && !single[i] {
			return nil, fmt.Errorf("fedfunc: mapping %s: %s feeds %d consumers but may answer more than one row", m.Name, m.Steps[i].Alias, consumers)
		}
	}
	if l := m.Loop; l != nil && (g.returns[0].ColumnIndex(l.Next) < 0 || g.returns[0].ColumnIndex(l.More) < 0) {
		return nil, fmt.Errorf("fedfunc: mapping %s: loop columns %s, %s missing", m.Name, l.Next, l.More)
	}
	return g, nil
}

// casts reports whether any result column converts explicitly.
func (g *graph) casts() bool {
	return slices.ContainsFunc(g.m.Project, func(o Out) bool { return o.Cast })
}

// passThrough reports whether the mapping is one call passing the
// parameters in their order.
func (g *graph) passThrough() bool {
	return len(g.m.Steps) == 1 && slices.EqualFunc(g.m.Steps[0].Args, g.m.Params, func(a Arg, p types.Column) bool {
		return a.src.Kind == wfms.FromInput && strings.EqualFold(a.src.Column, p.Name)
	})
}

// shape classifies the mapping by its data dependencies (Sect. 3);
// ordering-only edges do not count.
func (g *graph) shape() Case {
	n, edges, maxIn, maxOut := len(g.m.Steps), 0, 0, 0
	for i := range g.deps {
		edges += len(g.deps[i])
		maxIn, maxOut = max(maxIn, len(g.deps[i])), max(maxOut, g.users[i])
	}
	switch {
	case g.m.Loop != nil:
		return CaseCyclic
	case g.passThrough() && !g.casts():
		return CaseTrivial
	case n == 1:
		return CaseSimple
	case edges == 0:
		return CaseIndependent
	case edges != n-1: // some step is not linked by exactly one edge
		return CaseGeneral
	case maxIn <= 1 && maxOut <= 1:
		return CaseLinear
	case maxIn == edges:
		return CaseOneToN
	case maxOut == edges:
		return CaseNToOne
	}
	return CaseGeneral
}

// mechanisms derives the Sect. 3 table's mechanism columns from the case,
// the SQL compiler's refusal, and whether the compiled process runs two
// activities in parallel.
func mechanisms(c Case, steps int, sqlErr error, parallel bool) (udtf, wf string) {
	order := "sequential"
	if parallel {
		order = "parallel and sequential"
	}
	switch c {
	case CaseTrivial:
		return "hidden behind the federated function's signature", "hidden behind the federated function's signature"
	case CaseSimple:
		return "cast functions, supply of constant parameters", "helper functions"
	case CaseIndependent:
		return "join with selection", strings.TrimSuffix(order, " and sequential") + " execution of activities"
	case CaseCyclic:
		return "not supported: " + sqlErr.Error(), "loop construct with sub-workflow"
	case CaseGeneral:
		words := strings.Fields("zero one two three four five six seven eight nine")
		return fmt.Sprintf("one I-UDTF SELECT over %s A-UDTFs", words[min(steps, 9)]), "Fig. 1 process: " + order + " activities"
	}
	return "join with selection; execution order defined by input parameters", order + " execution of activities"
}

// parallel reports whether two nodes of p are unordered by its connectors.
func parallel(p *wfms.Process) bool {
	for i, a := range p.Nodes {
		for _, b := range p.Nodes[i+1:] {
			if !reaches(p.Flow, a.NodeName(), b.NodeName()) && !reaches(p.Flow, b.NodeName(), a.NodeName()) {
				return true
			}
		}
	}
	return false
}

// reaches reports whether connectors lead from one node to another.
func reaches(flow []wfms.ControlConnector, from, to string) bool {
	return slices.ContainsFunc(flow, func(cc wfms.ControlConnector) bool {
		return cc.From == from && (cc.To == to || reaches(flow, cc.To, to))
	})
}

// compile analyses m against reg and compiles it into a Spec.
func compile(m *Mapping, reg *appsys.Registry) (*Spec, error) {
	g, err := analyse(m, reg)
	if err != nil {
		return nil, err
	}
	s := &Spec{Name: m.Name, Case: g.shape(), Params: m.Params, Returns: g.out, Process: g.process,
		SampleArgs: m.Samples, graph: g}
	for _, st := range m.Steps {
		s.LocalFunctions = append(s.LocalFunctions, st.Function)
	}
	s.SQLDefinition, err = g.sql()
	s.UDTFMechanism, s.WfMSMechanism = mechanisms(s.Case, len(m.Steps), err, parallel(g.process()))
	if m.Go {
		if s.GoBody, err = g.goBody(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// arg renders an argument as SQL: a parameter qualified by the mapping's
// name, the way DB2 spells it, an earlier step's column by alias, or a
// literal.
func (g *graph) arg(a Arg) string {
	switch a.src.Kind {
	case wfms.FromInput:
		return g.m.Name + "." + a.src.Column
	case wfms.FromNode:
		return a.src.String()
	}
	return a.src.Const.String()
}

// call renders a step's invocation as SQL.
func (g *graph) call(s Step) string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = g.arg(a)
	}
	return s.Function + "(" + strings.Join(args, ", ") + ")"
}

// sql compiles the SQL I-UDTF's CREATE FUNCTION text, refusing a loop.
func (g *graph) sql() (string, error) {
	m := g.m
	if m.Loop != nil {
		return "", errors.New("no loop construct in SQL")
	}
	var sel, from, where []string
	for _, o := range m.Project {
		ref := o.From.Step + "." + o.From.Column
		if o.Cast {
			ref = o.Type.Base.String() + "(" + ref + ")"
		}
		sel = append(sel, ref)
	}
	for _, s := range m.Steps {
		from = append(from, "TABLE ("+g.call(s)+") AS "+s.Alias)
	}
	for _, j := range m.Joins {
		where = append(where, j.Left.Step+"."+j.Left.Column+" = "+j.Right.Step+"."+j.Right.Column)
	}
	text := fmt.Sprintf("CREATE FUNCTION %s %s\nRETURNS TABLE %s LANGUAGE SQL RETURN\nSELECT %s\nFROM %s",
		m.Name, types.Schema(m.Params), g.out, strings.Join(sel, ", "), strings.Join(from, ",\n     "))
	if len(where) > 0 {
		text += "\nWHERE " + strings.Join(where, " AND ")
	}
	return text, nil
}

// helper names the activity the process needs after its steps, if any: a
// join, a zip of several containers, a type conversion, or a projection.
func (g *graph) helper() string {
	switch {
	case g.m.Loop != nil:
		return "Project"
	case len(g.m.Joins) > 0:
		return "JoinHelper"
	case len(g.front) > 1:
		return "Combine"
	case g.casts():
		return "CastHelper"
	case !slices.EqualFunc(g.m.Project, g.returns[g.front[0]], func(o Out, c types.Column) bool {
		return strings.EqualFold(o.From.Column, c.Name)
	}):
		return "Project" // not the step's own columns in order
	}
	return ""
}

// process compiles the workflow process: an activity per step named by
// its alias, connectors from data dependencies and ordering edges, and a
// helper only where the result needs one.
func (g *graph) process() *wfms.Process {
	m := g.m
	p := &wfms.Process{Name: m.Name, Input: slices.Clone(m.Params), Output: g.out.Clone()}
	names := make([]string, len(m.Steps)) // each step's container
	var flow []wfms.ControlConnector
	for i, s := range m.Steps {
		act := &wfms.FunctionActivity{Name: s.Alias, System: s.System, Function: s.Function}
		for _, a := range s.Args {
			act.Args = append(act.Args, a.src)
		}
		if m.Loop != nil {
			names[i] = "Loop"
			p.Nodes = append(p.Nodes, g.loop(act))
			continue
		}
		names[i] = s.Alias
		p.Nodes = append(p.Nodes, act)
		for _, e := range m.After {
			if strings.EqualFold(e.To, s.Alias) {
				flow = append(flow, wfms.ControlConnector{From: names[g.index[strings.ToLower(e.From)]], To: s.Alias})
			}
		}
		for _, d := range g.deps[i] {
			flow = append(flow, wfms.ControlConnector{From: names[d], To: s.Alias})
		}
	}
	p.Result = names[g.front[0]]
	if name := g.helper(); name != "" {
		keys := make([]string, len(g.front))
		for k, i := range g.front {
			keys[k] = strings.ToLower(names[i])
			flow = append(flow, wfms.ControlConnector{From: names[i], To: name})
		}
		rel := g.relation(func(step int) int { return slices.Index(g.front, step) })
		p.Nodes = append(p.Nodes, &wfms.HelperActivity{Name: name, Fn: rel.combine(keys)})
		p.Result = name
	}
	// Keep each connector once, and only where no other path implies it.
	for _, cc := range flow {
		drop := slices.ContainsFunc(p.Flow, func(k wfms.ControlConnector) bool { return k.From == cc.From && k.To == cc.To })
		for _, via := range flow {
			drop = drop || via.From == cc.From && via.To != cc.To && reaches(flow, via.To, cc.To)
		}
		if !drop {
			p.Flow = append(p.Flow, cc)
		}
	}
	return p
}

// loop wraps the loop's step into its do-until block.
func (g *graph) loop(act *wfms.FunctionActivity) *wfms.Block {
	l := g.m.Loop
	next, more := g.returns[0].ColumnIndex(l.Next), g.returns[0].ColumnIndex(l.More)
	return &wfms.Block{
		Name: "Loop",
		Body: &wfms.Process{Name: l.Body, Input: []types.Column{{Name: l.Cursor, Type: types.Integer}},
			Output: g.returns[0].Clone(), Nodes: []wfms.Node{act}, Result: act.Name},
		Args: map[string]wfms.Source{l.Cursor: wfms.Const(types.NewInt(l.Start))},
		Until: func(out *types.Table) (bool, error) {
			return out.Len() == 0 || out.Rows[0][more].Int() == 0, nil
		},
		Feedback: func(out *types.Table) (map[string]types.Value, error) {
			return map[string]types.Value{l.Cursor: out.Rows[0][next]}, nil
		},
		Accumulate: true,
	}
}

// colPos addresses a value: which of the combined rows, which column.
type colPos struct{ row, col int }

// relation is the result's joins, projection and casts over one row per
// combined step; the process helper, the Go body and the batch body share
// it.
type relation struct {
	joins  [][2]colPos
	cols   []colPos
	cast   []bool
	schema types.Schema
}

// relation resolves the result over rows laid out by pos(step).
func (g *graph) relation(pos func(step int) int) *relation {
	at := func(r Ref) colPos {
		i := g.index[strings.ToLower(r.Step)]
		return colPos{pos(i), g.returns[i].ColumnIndex(r.Column)}
	}
	rel := &relation{schema: g.out}
	for _, j := range g.m.Joins {
		rel.joins = append(rel.joins, [2]colPos{at(j.Left), at(j.Right)})
	}
	for _, o := range g.m.Project {
		rel.cols, rel.cast = append(rel.cols, at(o.From)), append(rel.cast, o.Cast)
	}
	return rel
}

// emit appends the result row of one combination, if the joins hold.
func (r *relation) emit(out *types.Table, rows []types.Row) error {
	for _, j := range r.joins {
		if a := rows[j[0].row][j[0].col]; a.IsNull() || !a.Equal(rows[j[1].row][j[1].col]) {
			return nil
		}
	}
	row := make(types.Row, len(r.cols))
	for i, c := range r.cols {
		row[i] = rows[c.row][c.col]
		if r.cast[i] {
			var err error
			if row[i], err = types.Cast(row[i], r.schema[i].Type); err != nil {
				return err
			}
		}
	}
	out.Rows = append(out.Rows, row)
	return nil
}

// walk emits the result of every combination of rows, the k-th row drawn
// from table(k) once the rows before it are set.
func (r *relation) walk(out *types.Table, rows []types.Row, k int, table func(k int) (*types.Table, error)) error {
	if k == len(rows) {
		return r.emit(out, rows)
	}
	tab, err := table(k)
	if err != nil {
		return err
	}
	for _, rows[k] = range tab.Rows {
		if err := r.walk(out, rows, k+1, table); err != nil {
			return err
		}
	}
	return nil
}

// combine is the helper activity: the result over the named containers.
func (r *relation) combine(keys []string) func(wfms.Containers) (*types.Table, error) {
	return func(in wfms.Containers) (*types.Table, error) {
		out := types.NewTable(r.schema)
		err := r.walk(out, make([]types.Row, len(keys)), 0, func(k int) (*types.Table, error) {
			tab, _ := in.Get(keys[k])
			return tab, nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}

// goBody compiles the Go I-UDTF body: each step's SELECT, parsed once,
// runs in dependency order, once per combination of earlier steps' rows
// (the lateral join, in host code). Its bound row is the call's arguments,
// the loop cursor, then the columns of the rows of the steps before it,
// under the names the SELECT spells; the loop becomes a host loop bounded
// by wfms.DefaultMaxIterations.
func (g *graph) goBody() (udtf.GoBody, error) {
	m, n := g.m, len(g.m.Steps)
	// The bound row's leading columns: the call's arguments, then the
	// loop cursor, each qualified by the function's name.
	head := make([]catalog.Param, 0, len(m.Params)+1)
	for _, p := range m.Params {
		head = append(head, catalog.Param{Corr: m.Name, Name: p.Name, Type: p.Type})
	}
	if m.Loop != nil {
		head = append(head, catalog.Param{Corr: m.Name, Name: m.Loop.Cursor, Type: types.Integer})
	}
	bodies := make([]*catalog.Body, n)
	params := head
	for i, s := range m.Steps {
		sel, err := sqlparser.ParseSelect(fmt.Sprintf("SELECT * FROM TABLE (%s) AS %s", g.call(s), s.Alias))
		if err != nil {
			return nil, err
		}
		bodies[i] = &catalog.Body{Select: sel, Params: slices.Clip(params)}
		for _, col := range g.returns[i] {
			params = append(params, catalog.Param{Corr: s.Alias, Name: col.Name, Type: col.Type})
		}
	}
	// run runs step i; rows[n] holds the leading columns.
	run := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, i int, rows []types.Row) (*types.Table, error) {
		bind := make([]types.Value, 0, len(bodies[i].Params))
		bind = append(bind, rows[n]...)
		for _, row := range rows[:i] {
			bind = append(bind, row...)
		}
		return rt.RunBodyContext(ctx, bodies[i], bind, task)
	}
	rel := g.relation(func(step int) int { return step })
	return func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		rows := make([]types.Row, n+1)
		rows[n] = args
		table := func(k int) (*types.Table, error) { return run(ctx, rt, task, k, rows) }
		if l := m.Loop; l != nil {
			rows[n] = append(slices.Clone(args), types.NewInt(l.Start))
			table = func(int) (*types.Table, error) { // every iteration's rows
				acc := &types.Table{}
				for i := 0; i < wfms.DefaultMaxIterations; i++ {
					res, err := run(ctx, rt, task, 0, rows)
					if err != nil {
						return nil, err
					}
					acc.Rows = append(acc.Rows, res.Rows...)
					if res.Len() == 0 || res.Rows[0][g.returns[0].ColumnIndex(l.More)].Int() == 0 {
						return acc, nil
					}
					rows[n][len(args)] = res.Rows[0][g.returns[0].ColumnIndex(l.Next)]
				}
				return nil, fmt.Errorf("fedfunc: %s loop did not terminate", m.Name)
			}
		}
		out := types.NewTable(rel.schema)
		if err := rel.walk(out, rows[:n], 0, table); err != nil {
			return nil, err
		}
		return out, nil
	}, nil
}

// registerBatch installs the set-oriented realisation of a mapping that
// is one pass-through call plus a column projection on its SQL I-UDTF: a
// chunk's argument rows go to the step's A-UDTF as one batch, and each
// answer is projected. Any other mapping keeps its per-row SQL body.
func (g *graph) registerBatch(eng *engine.Engine, ins *udtf.Instrument) error {
	if g.m.Loop != nil || !g.passThrough() {
		return nil
	}
	fn, err := eng.Catalog().Func(g.m.Steps[0].Function)
	if err != nil {
		return err
	}
	rel := g.relation(func(int) int { return 0 })
	body := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
		tabs, err := catalog.InvokeFuncBatch(ctx, fn, rt, task, rows)
		if err != nil {
			return nil, err
		}
		out := make([]*types.Table, len(tabs))
		for i, tab := range tabs {
			out[i] = &types.Table{Schema: rel.schema, Rows: make([]types.Row, 0, len(tab.Rows))}
			if err := rel.walk(out[i], make([]types.Row, 1), 0, func(int) (*types.Table, error) { return tab, nil }); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return udtf.SetSQLBatchRealization(eng, ins, g.m.Name, body)
}

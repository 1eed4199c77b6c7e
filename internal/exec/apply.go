package exec

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"fedwf/internal/exec/batcher"
	"fedwf/internal/obs"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// Apply is the lateral join: for every left row it evaluates the right side
// with the left row appended to the binding and emits leftRow ++ rightRow —
// the paper's "execution order defined by input parameters". Its three
// modes return the same rows in the same order:
//   - per row (DOP <= 1, no batching): the right side is opened once per
//     outer row and read only as far as the parent pulls;
//   - in chunks (DOP <= 1, batching over a bare FuncScan): up to
//     Batch.Count outer rows travel as one set-oriented call;
//   - in parallel (DOP > 1): Open drains the left side and worker w takes
//     rows w, w+DOP, ..., in chunks where batching applies, on its own
//     clone of the right side and simlat Fork branch. The static partition
//     keeps virtual time and cache statistics deterministic.
type Apply struct {
	Left, Right Operator
	Sch         types.Schema
	// Independent (no lateral references) charges the composition cost.
	Independent bool
	// Outer makes it a LEFT join: an unmatched left row is NULL-padded.
	Outer bool
	// On filters joined rows (leftRow ++ rightRow); nil matches all.
	On Expr
	// DOP > 1 runs on that many workers, over clones of the right side.
	DOP int
	// Batch, when enabled over a bare FuncScan, sends outer rows in chunks.
	Batch batcher.Policy
	// Stats, set by Instrument, receives per-worker utilization.
	Stats *OpStats

	j joiner
	// per-row mode: the outer row whose right side is open; chunked and
	// parallel modes: the joined rows waiting for Next
	leftRow           types.Row
	rows              []types.Row
	pos               int
	matched, leftDone bool
}

// joiner evaluates the right side for chunks of outer rows and builds what
// they yield: the sequential operator has one, each parallel worker its own.
type joiner struct {
	op    *Apply
	ctx   *Ctx
	bind  types.Row // the enclosing binding
	right Operator
	fs    *FuncScan // right, when it takes chunks
	slab  rowSlab
	chunk []types.Row   // the outer rows
	rs    [][]types.Row // the right rows of each, then the joined rows
}

// newJoiner returns a's joiner over right, which takes chunks when batching
// is on and it is a FuncScan, instrumented or not: only a bare call can
// take many argument rows.
func (a *Apply) newJoiner(ctx *Ctx, bind types.Row, right Operator) joiner {
	j := joiner{op: a, ctx: ctx, bind: bind, right: right}
	if an, ok := right.(*Analyzed); ok {
		right = an.Child
	}
	if a.Batch.Enabled() {
		j.fs, _ = right.(*FuncScan)
	}
	return j
}

// childBind returns the binding the right side sees for outer row lr: the
// enclosing binding followed by lr. Operators copy a binding before they
// extend it, so with no enclosing binding it is lr itself.
func childBind(bind, lr types.Row) types.Row {
	if len(bind) == 0 {
		return lr
	}
	out := make(types.Row, len(bind)+len(lr))
	copy(out[copy(out, bind):], lr)
	return out
}

// match returns lr ++ rr, or nil (its cells back in the slab) if On fails.
func (j *joiner) match(lr, rr types.Row) (types.Row, error) {
	out := j.slab.concat(lr, rr)
	if j.op.On != nil {
		if ok, err := holds(j.op.On, out, j.ctx.Params); err != nil || !ok {
			j.slab.unalloc(out)
			return nil, err
		}
	}
	return out, nil
}

// pad returns lr followed by a NULL per right-side column.
func (j *joiner) pad(lr types.Row) types.Row {
	out := j.slab.alloc(len(lr) + len(j.right.Schema()))
	for i := copy(out, lr); i < len(out); i++ {
		out[i] = types.Null
	}
	return out
}

// join appends what outer row lr yields against its right rows rs.
func (j *joiner) join(out []types.Row, lr types.Row, rs []types.Row) ([]types.Row, error) {
	n := len(out)
	for _, rr := range rs {
		row, err := j.match(lr, rr)
		if err != nil {
			return out, err
		}
		if row != nil {
			out = append(out, row)
		}
	}
	if j.op.Outer && len(out) == n {
		out = append(out, j.pad(lr))
	}
	return out, nil
}

// rightRows sets j.rs to the right rows of each outer row of the chunk: one
// set-oriented call, or one Open and drain of a chunk of one row. A failed
// call or Open may be degraded (no right row arrived); a failed drain not.
func (j *joiner) rightRows() (degradable bool, err error) {
	if j.fs != nil {
		obs.FromContext(j.ctx.Context).AddBatch(len(j.chunk), j.op.Batch.Count)
		tabs, err := j.fs.invokeBatch(j.ctx, j.bind, j.chunk)
		j.rs = j.rs[:0]
		for _, tab := range tabs {
			j.rs = append(j.rs, tab.Rows)
		}
		return true, err
	}
	defer j.right.Close()
	if err := j.right.Open(j.ctx, childBind(j.bind, j.chunk[0])); err != nil {
		return true, err
	}
	j.rs = append(j.rs[:0], nil)
	for {
		rr, err := j.right.Next()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		j.rs[0] = append(j.rs[0], rr)
	}
}

// joinChunk appends the chunk's rows to out, from one allocation, and
// leaves in j.rs[i] those of chunk[i]. A degradable failure NULL-pads the
// whole chunk; any other also returns the position of the failing row.
func (j *joiner) joinChunk(out []types.Row) ([]types.Row, int, error) {
	if degradable, err := j.rightRows(); err != nil {
		if !degradable || !degrade(j.ctx, j.op.Outer, err) {
			return out, 0, err
		}
		j.rs = append(j.rs[:0], make([][]types.Row, len(j.chunk))...)
	}
	cells, width := 0, len(j.right.Schema())
	for i, lr := range j.chunk {
		cells += max(len(j.rs[i]), 1) * (len(lr) + width) // 1: the NULL pad
	}
	j.slab.reserve(cells)
	for i, lr := range j.chunk {
		start := len(out)
		var err error
		if out, err = j.join(out, lr, j.rs[i]); err != nil {
			return out, i, err
		}
		j.rs[i] = out[start:len(out):len(out)]
	}
	return out, 0, nil
}

// Schema implements Operator.
func (a *Apply) Schema() types.Schema { return a.Sch }

// Open implements Operator. In parallel mode all the work happens here.
func (a *Apply) Open(ctx *Ctx, bind types.Row) error {
	a.j = a.newJoiner(ctx, bind, a.Right)
	a.leftRow, a.rows, a.pos, a.leftDone = nil, nil, 0, false
	if a.Independent {
		ctx.Task.Step(simlat.StepJoinComposition, ctx.CompositionCost)
	}
	if a.DOP > 1 {
		return a.openParallel()
	}
	return a.Left.Open(ctx, bind)
}

// Next implements Operator.
func (a *Apply) Next() (types.Row, error) {
	if a.DOP <= 1 && a.j.fs == nil {
		return a.nextRow()
	}
	for a.pos >= len(a.rows) && !a.leftDone {
		// Join the next chunk of up to Batch.Count left rows.
		a.j.chunk, a.rows, a.pos = a.j.chunk[:0], a.rows[:0], 0
		for len(a.j.chunk) < a.Batch.Count {
			lr, err := a.Left.Next()
			if a.leftDone = err == io.EOF; a.leftDone {
				break
			}
			if err == nil {
				err = a.j.ctx.check()
			}
			if err != nil {
				return nil, err
			}
			a.j.chunk = append(a.j.chunk, lr)
		}
		if len(a.j.chunk) > 0 {
			var err error
			if a.rows, _, err = a.j.joinChunk(a.rows); err != nil {
				return nil, err
			}
		}
	}
	if a.pos >= len(a.rows) {
		return nil, io.EOF
	}
	a.pos++
	return a.rows[a.pos-1], nil
}

// nextRow is Next in per-row mode.
func (a *Apply) nextRow() (types.Row, error) {
	for {
		if a.leftRow == nil {
			lr, err := a.Left.Next()
			if err == nil {
				err = a.j.ctx.check()
			}
			if err != nil {
				return nil, err
			}
			if err := a.Right.Open(a.j.ctx, childBind(a.j.bind, lr)); err != nil {
				a.Right.Close()
				if degrade(a.j.ctx, a.Outer, err) {
					return a.j.pad(lr), nil // the shed branch matched nothing
				}
				return nil, err
			}
			a.leftRow, a.matched = lr, false
		}
		rr, err := a.Right.Next()
		if err == io.EOF {
			a.Right.Close()
			lr := a.leftRow
			a.leftRow = nil
			if a.Outer && !a.matched {
				return a.j.pad(lr), nil
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		if row, err := a.j.match(a.leftRow, rr); err != nil || row != nil {
			a.matched = true
			return row, err
		}
	}
}

// openParallel joins the drained left side on the worker pool.
func (a *Apply) openParallel() error {
	a.leftDone = true
	ctx := a.j.ctx
	left, err := collect(a.Left, ctx, a.j.bind)
	if err != nil || len(left) == 0 {
		return err
	}
	workers := min(a.DOP, len(left))
	rights := []Operator{a.Right}
	for len(rights) < workers {
		rights = append(rights, a.Right.Clone())
	}
	branches := ctx.Task.ForkN(workers)
	results := make([][]types.Row, len(left))
	var (
		stop   atomic.Bool
		mu     sync.Mutex
		errIdx = len(left)
		first  error
		wg     sync.WaitGroup
	)
	// Report the error at the lowest left-row index, as the sequential plan.
	fail := func(idx int, err error) {
		mu.Lock()
		if idx < errIdx {
			errIdx, first = idx, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	run := func(w int) {
		sp := obs.StartSpan(branches[w], "exec.worker", obs.Attr{Key: "worker", Value: strconv.Itoa(w)})
		defer sp.End(branches[w])
		wctx := *ctx
		wctx.Task = branches[w]
		j := a.newJoiner(&wctx, a.j.bind, rights[w])
		j.work(left, w, workers, results, &stop, fail)
	}
	// Worker 0 runs on this goroutine, whose stack has already grown to
	// the depth of a federated call; only the others start afresh.
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	if a.Stats != nil {
		for w, b := range branches {
			a.Stats.addWorker(w, b.Spent())
		}
	}
	ctx.Task.Join(branches...)
	if first != nil {
		return first
	}
	a.rows = slices.Concat(results...)
	return nil
}

// work is worker w's share of n: left rows w, w+n, ... in chunks, setting
// results[i] to the rows left row i yields.
func (j *joiner) work(left []types.Row, w, n int, results [][]types.Row, stop *atomic.Bool, fail func(int, error)) {
	size := 1
	if j.fs != nil {
		size = j.op.Batch.Count
	}
	out := make([]types.Row, 0, (len(left)-w+n-1)/n)
	for first := w; first < len(left) && !stop.Load(); first += size * n {
		j.chunk = j.chunk[:0]
		for idx := first; idx < len(left) && len(j.chunk) < size; idx += n {
			if err := j.ctx.check(); err != nil {
				fail(idx, err)
				return
			}
			j.chunk = append(j.chunk, left[idx])
		}
		var at int
		var err error
		if out, at, err = j.joinChunk(out); err != nil {
			fail(first+at*n, err)
			return
		}
		for i, rs := range j.rs {
			results[first+i*n] = rs
		}
	}
}

// Close implements Operator.
func (a *Apply) Close() error {
	if a.leftRow != nil {
		a.Right.Close()
		a.leftRow = nil
	}
	a.rows = nil
	if a.DOP > 1 {
		return nil // Open drained and closed the left side
	}
	return a.Left.Close()
}

// Describe implements Operator.
func (a *Apply) Describe() string {
	s, batch := "Apply", ""
	if a.Outer {
		s = "LeftApply"
	}
	if a.Batch.Enabled() {
		batch = fmt.Sprintf(" (batch=%s)", a.Batch)
	}
	switch {
	case a.DOP > 1:
		s = fmt.Sprintf("Parallel%s (dop=%d)%s", s, a.DOP, batch)
	case a.Outer:
		s += batch
	case a.Batch.Enabled():
		s = fmt.Sprintf("Apply (lateral, batch=%s)", a.Batch)
	default:
		s = "Apply (lateral)"
	}
	if a.On != nil {
		s += " on " + a.On.String()
	}
	return s
}

// Children implements Operator.
func (a *Apply) Children() []Operator { return []Operator{a.Left, a.Right} }

// Clone implements Operator.
func (a *Apply) Clone() Operator {
	return &Apply{
		Left: a.Left.Clone(), Right: a.Right.Clone(), Sch: a.Sch, Independent: a.Independent,
		Outer: a.Outer, On: a.On, DOP: a.DOP, Batch: a.Batch, Stats: a.Stats,
	}
}

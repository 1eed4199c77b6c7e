package exec

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedwf/internal/obs/stats"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// OpStats accumulates runtime statistics for one plan node. All clones of
// the node — a parallel Apply makes one clone of its right side per worker —
// share the same OpStats, so the counters aggregate across workers; they
// are atomic for that reason.
type OpStats struct {
	// Opens counts Open calls (the loop count for a lateral right side).
	Opens atomic.Int64
	// Rows counts rows returned by Next across all opens and clones.
	Rows atomic.Int64
	// Busy is the cumulative task time (virtual in virtual mode, wall
	// otherwise) observed inside Open and Next, children included.
	Busy atomic.Int64

	// CacheHits/CacheMisses/CacheCoalesced are per-operator function-cache
	// outcomes; only FuncScan nodes record them.
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheCoalesced atomic.Int64

	// workers holds per-worker utilization (simlat work charged on each
	// branch) recorded by a parallel Apply after joining its pool.
	wmu     sync.Mutex
	workers []time.Duration
}

// addWorker accumulates branch-spent time for worker w.
func (st *OpStats) addWorker(w int, d time.Duration) {
	st.wmu.Lock()
	for len(st.workers) <= w {
		st.workers = append(st.workers, 0)
	}
	st.workers[w] += d
	st.wmu.Unlock()
}

// noteCache counts one function-cache outcome; a nil OpStats counts
// nothing.
func (st *OpStats) noteCache(o CacheOutcome) {
	if st == nil {
		return
	}
	switch o {
	case CacheHit:
		st.CacheHits.Add(1)
	case CacheMiss:
		st.CacheMisses.Add(1)
	case CacheCoalesced:
		st.CacheCoalesced.Add(1)
	}
}

// Workers returns per-worker utilization, empty for non-parallel nodes.
func (st *OpStats) Workers() []time.Duration {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	return append([]time.Duration(nil), st.workers...)
}

// Analyzed wraps an operator with row/time accounting for EXPLAIN
// ANALYZE. Clones share the wrapped node's OpStats, so statistics
// aggregate across parallel Apply workers.
type Analyzed struct {
	Child Operator
	Stats *OpStats

	task *simlat.Task
}

// Schema implements Operator.
func (a *Analyzed) Schema() types.Schema { return a.Child.Schema() }

// Open implements Operator.
func (a *Analyzed) Open(ctx *Ctx, bind types.Row) error {
	a.task = ctx.Task
	a.Stats.Opens.Add(1)
	before := a.task.Elapsed()
	err := a.Child.Open(ctx, bind)
	a.Stats.Busy.Add(int64(a.task.Elapsed() - before))
	return err
}

// Next implements Operator.
func (a *Analyzed) Next() (types.Row, error) {
	before := a.task.Elapsed()
	row, err := a.Child.Next()
	a.Stats.Busy.Add(int64(a.task.Elapsed() - before))
	if err == nil {
		a.Stats.Rows.Add(1)
	}
	return row, err
}

// Close implements Operator.
func (a *Analyzed) Close() error { return a.Child.Close() }

// Describe implements Operator.
func (a *Analyzed) Describe() string { return a.Child.Describe() }

// Children implements Operator.
func (a *Analyzed) Children() []Operator { return a.Child.Children() }

// Clone implements Operator: the clone shares Stats so worker-side
// execution aggregates into the same counters.
func (a *Analyzed) Clone() Operator {
	return &Analyzed{Child: a.Child.Clone(), Stats: a.Stats}
}

// Instrument wraps every node of a plan in Analyzed, rewriting child
// links in place, and returns the wrapped root. FuncScan nodes are handed
// their OpStats so they can record per-operator cache outcomes, and Apply
// nodes theirs so a parallel one can record per-worker utilization.
func Instrument(op Operator) Operator {
	if an, ok := op.(*Analyzed); ok {
		return an
	}
	st := &OpStats{}
	switch o := op.(type) {
	case *Apply:
		o.Left, o.Right, o.Stats = Instrument(o.Left), Instrument(o.Right), st
	case *FuncScan:
		o.Stats = st
	case *HashJoin:
		// A transient join's reader is now an Analyzed, not the Agg or
		// Filter the planner checked, so the join builds rows of its own.
		o.Left, o.Right, o.Transient = Instrument(o.Left), Instrument(o.Right), false
	case *Filter:
		o.Child = Instrument(o.Child)
	case *Project:
		o.Child = Instrument(o.Child)
	case *Sort:
		o.Child = Instrument(o.Child)
	case *Distinct:
		o.Child = Instrument(o.Child)
	case *Limit:
		o.Child = Instrument(o.Child)
	case *Concat:
		for i, in := range o.Inputs {
			o.Inputs[i] = Instrument(in)
		}
	case *Agg:
		o.Child = Instrument(o.Child)
	}
	return &Analyzed{Child: op, Stats: st}
}

// ExplainAnalyzeString renders an instrumented plan after execution: one
// line per node with its Describe text plus actual rows, loops, and
// cumulative time in paper milliseconds; FuncScan lines add cache
// outcomes, parallel Apply lines per-worker utilization.
func ExplainAnalyzeString(op Operator) string {
	var b strings.Builder
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		an, ok := o.(*Analyzed)
		if !ok {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(o.Describe())
			b.WriteByte('\n')
			for _, c := range o.Children() {
				walk(c, depth+1)
			}
			return
		}
		st := an.Stats
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s (actual rows=%d loops=%d time=%s)",
			an.Child.Describe(), st.Rows.Load(), st.Opens.Load(), paperMSString(time.Duration(st.Busy.Load())))
		if h, m, c := st.CacheHits.Load(), st.CacheMisses.Load(), st.CacheCoalesced.Load(); h+m+c > 0 {
			fmt.Fprintf(&b, " cache(hits=%d misses=%d coalesced=%d)", h, m, c)
		}
		if ws := st.Workers(); len(ws) > 0 {
			parts := make([]string, len(ws))
			for i, d := range ws {
				parts[i] = fmt.Sprintf("w%d=%s", i, paperMSString(d))
			}
			fmt.Fprintf(&b, " workers[%s]", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
		for _, c := range an.Child.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}

// paperMSString renders d in paper milliseconds with one decimal.
func paperMSString(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(simlat.PaperMS))
}

// CollectActuals flattens an instrumented plan's measured actuals in
// ExplainString preorder, one entry per plan line, for the plan-shape
// feedback store behind measured-vs-estimated EXPLAIN output.
func CollectActuals(op Operator) []stats.OpActual {
	var out []stats.OpActual
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		if an, ok := o.(*Analyzed); ok {
			st := an.Stats
			out = append(out, stats.OpActual{
				Node:  an.Child.Describe(),
				Depth: depth,
				Rows:  st.Rows.Load(),
				Loops: st.Opens.Load(),
				Busy:  time.Duration(st.Busy.Load()),
			})
			for _, c := range an.Child.Children() {
				walk(c, depth+1)
			}
			return
		}
		out = append(out, stats.OpActual{Node: o.Describe(), Depth: depth})
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return out
}

// RunAnalyze instruments the plan, executes it to completion, and returns
// the result table together with the instrumented root for rendering.
func RunAnalyze(op Operator, ctx *Ctx) (*types.Table, Operator, error) {
	root := Instrument(op)
	tab, err := Run(root, ctx)
	return tab, root, err
}

// Drain consumes and discards an operator's rows; used by callers that
// want side effects (statistics) without materialising results.
func Drain(op Operator, ctx *Ctx) (int, error) {
	if err := op.Open(ctx, nil); err != nil {
		op.Close()
		return 0, err
	}
	defer op.Close()
	n := 0
	for {
		_, err := op.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

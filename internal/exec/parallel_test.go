package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// taskFnTableFunc is a catalog.TableFunc that charges simulated work to
// the invoking task, for Fork/Join accounting tests.
type taskFnTableFunc struct {
	name string
	cost time.Duration
	fn   func(args []types.Value) (*types.Table, error)
}

func (f *taskFnTableFunc) Name() string { return f.name }
func (f *taskFnTableFunc) Params() []types.Column {
	return []types.Column{{Name: "x", Type: types.Integer}}
}
func (f *taskFnTableFunc) Schema() types.Schema { return intSchema("y") }
func (f *taskFnTableFunc) InvokeContext(_ context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	task.Spend(f.cost)
	return f.fn(args)
}

// fanOut returns a fn producing arg%3 rows (arg*10+j), so merges cover
// multi-row, single-row, and empty right-side results.
func fanOut(args []types.Value) (*types.Table, error) {
	out := types.NewTable(intSchema("y"))
	n := args[0].Int() % 3
	for j := int64(0); j < n; j++ {
		out.MustAppend(types.Row{types.NewInt(args[0].Int()*10 + j)})
	}
	return out, nil
}

func seqInts(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestParallelApplyMatchesSequential(t *testing.T) {
	left := intRows(seqInts(16)...)
	mk := func() (Operator, Operator) {
		scan := func() Operator {
			return &FuncScan{Fn: &fnTableFunc{name: "F", fn: fanOut}, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")}
		}
		seq := &Apply{Left: &Values{Sch: intSchema("l"), Rows: left}, Right: scan(), Sch: types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}}}
		par := &ParallelApply{Left: &Values{Sch: intSchema("l"), Rows: left}, Right: scan(), Sch: seq.Sch}
		return seq, par
	}
	seq, _ := mk()
	want := runAll(t, seq)
	for _, dop := range []int{1, 2, 3, 4, 16, 32} {
		_, par := mk()
		par.(*ParallelApply).DOP = dop
		got := runAll(t, par)
		if got.Len() != want.Len() {
			t.Fatalf("dop=%d: %d rows, want %d", dop, got.Len(), want.Len())
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if !got.Rows[i][j].Equal(want.Rows[i][j]) {
					t.Fatalf("dop=%d: row %d = %v, want %v", dop, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

func TestParallelApplyOuterMatchesLeftApply(t *testing.T) {
	left := intRows(seqInts(12)...)
	// l > 3 keeps some matched rows and NULL-pads the rest.
	on := Bin{Op: ">", L: Col{Idx: 0, Name: "l"}, R: Const{V: types.NewInt(3)}}
	sch := types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}}
	scan := func() Operator {
		return &FuncScan{Fn: &fnTableFunc{name: "F", fn: fanOut}, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")}
	}
	seq := &LeftApply{Left: &Values{Sch: intSchema("l"), Rows: left}, Right: scan(), On: on, Sch: sch}
	par := &ParallelApply{Left: &Values{Sch: intSchema("l"), Rows: left}, Right: scan(), On: on, Sch: sch, DOP: 4, Outer: true}
	want := runAll(t, seq)
	got := runAll(t, par)
	if got.String() != want.String() {
		t.Fatalf("outer mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestParallelApplyVirtualMaxBranch(t *testing.T) {
	// 16 outer rows at 10ms each: sequential charges 160ms, DOP 4 charges
	// 4 rows per worker branch, so Join must report exactly 40ms.
	const cost = 10 * time.Millisecond
	mk := func(par bool) Operator {
		scan := &FuncScan{
			Fn:   &taskFnTableFunc{name: "Slow", cost: cost, fn: fanOut},
			Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y"),
		}
		leftOp := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(16)...)}
		sch := types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}}
		if par {
			return &ParallelApply{Left: leftOp, Right: scan, Sch: sch, DOP: 4}
		}
		return &Apply{Left: leftOp, Right: scan, Sch: sch}
	}
	seqTask := simlat.NewVirtualTask()
	if _, err := Run(mk(false), &Ctx{Task: seqTask}); err != nil {
		t.Fatal(err)
	}
	parTask := simlat.NewVirtualTask()
	if _, err := Run(mk(true), &Ctx{Task: parTask}); err != nil {
		t.Fatal(err)
	}
	if got, want := seqTask.Elapsed(), 16*cost; got != want {
		t.Errorf("sequential elapsed = %v, want %v", got, want)
	}
	if got, want := parTask.Elapsed(), 4*cost; got != want {
		t.Errorf("parallel elapsed = %v, want %v (max-branch, not summed)", got, want)
	}
	// Spent work (the summed cost over all branches) stays the full 160ms.
	if got, want := parTask.Spent(), 16*cost; got != want {
		t.Errorf("parallel spent = %v, want %v", got, want)
	}
}

func TestParallelApplyWallSpeedup(t *testing.T) {
	// 24 outer rows at 10ms each: sequential sleeps ~240ms of scaled wall
	// time, DOP 4 should finish in ~60ms. Assert > 2x to stay robust on
	// loaded machines.
	const cost = 10 * time.Millisecond
	run := func(dop int) time.Duration {
		var right Operator = &FuncScan{
			Fn:   &taskFnTableFunc{name: "Slow", cost: cost, fn: fanOut},
			Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y"),
		}
		leftOp := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(24)...)}
		sch := types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}}
		var op Operator
		if dop > 1 {
			op = &ParallelApply{Left: leftOp, Right: right, Sch: sch, DOP: dop}
		} else {
			op = &Apply{Left: leftOp, Right: right, Sch: sch}
		}
		start := time.Now()
		if _, err := Run(op, &Ctx{Task: simlat.NewWallTask(1.0)}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := run(1)
	par := run(4)
	if speedup := float64(seq) / float64(par); speedup <= 2 {
		t.Errorf("wall speedup at DOP=4 = %.2fx (seq %v, par %v), want > 2x", speedup, seq, par)
	}
}

func TestParallelApplyWorkerError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	release := make(chan struct{})
	fn := &fnTableFunc{name: "F", fn: func(args []types.Value) (*types.Table, error) {
		if args[0].Int() == 0 {
			// Let the other worker get one call in flight, then fail.
			<-release
			return nil, boom
		}
		if calls.Add(1) == 1 {
			close(release)
		}
		// Slow enough that the stop flag lands while this worker still has
		// most of its rows ahead of it.
		time.Sleep(time.Millisecond)
		return fanOut(args)
	}}
	par := &ParallelApply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(seqInts(100)...)},
		Right: &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}},
		DOP:   2,
	}
	_, err := Run(par, &Ctx{Task: simlat.Free()})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The stop flag must cut the remaining 98 rows short: worker 1 may
	// finish the row in flight plus a few more before observing it, but
	// nowhere near its full share.
	if n := calls.Load(); n > 10 {
		t.Errorf("%d right-side calls after worker error, cancellation ineffective", n)
	}
}

func TestParallelApplyEmptyLeft(t *testing.T) {
	par := &ParallelApply{
		Left:  &Values{Sch: intSchema("l")},
		Right: &FuncScan{Fn: &fnTableFunc{name: "F", fn: fanOut}, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}},
		DOP:   4,
	}
	if tab := runAll(t, par); tab.Len() != 0 {
		t.Errorf("empty left produced %d rows", tab.Len())
	}
}

func TestParallelApplySharedCacheSingleInvocation(t *testing.T) {
	// Eight identical arguments under DOP 4 with a shared cache: exactly
	// one underlying invocation; every worker sees the same table.
	var calls atomic.Int64
	fn := &fnTableFunc{name: "F", fn: func(args []types.Value) (*types.Table, error) {
		calls.Add(1)
		out := types.NewTable(intSchema("y"))
		out.MustAppend(types.Row{types.NewInt(args[0].Int() * 2)})
		return out, nil
	}}
	par := &ParallelApply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(7, 7, 7, 7, 7, 7, 7, 7)},
		Right: &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}},
		DOP:   4,
	}
	fc := NewFuncCache()
	tab, err := Run(par, &Ctx{Task: simlat.Free(), FuncCache: fc})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("%d underlying calls, want 1", calls.Load())
	}
	if tab.Len() != 8 || tab.Rows[3][1].Int() != 14 {
		t.Errorf("bad result:\n%s", tab)
	}
	if st := fc.Snapshot(); st.Total() != 8 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss in 8 lookups", st)
	}
}

func TestFuncCacheSingleflight(t *testing.T) {
	const n = 8
	fc := NewFuncCache()
	args := []types.Value{types.NewInt(42)}
	tab := types.NewTable(intSchema("y"))
	var calls atomic.Int64
	block := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*types.Table, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := fc.Invoke("fn", args, func() (*types.Table, error) {
				calls.Add(1)
				<-block
				return tab, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = got
		}(i)
	}
	// Wait until every goroutine has either started the call or joined it,
	// then release the in-flight invocation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fc.Snapshot()
		if st.Misses == 1 && st.Coalesced == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for coalescing, stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("%d underlying calls, want 1", calls.Load())
	}
	for i, got := range results {
		if got != tab {
			t.Errorf("goroutine %d got a different table", i)
		}
	}
	// A lookup after completion is a plain hit.
	if _, err := fc.Invoke("fn", args, func() (*types.Table, error) {
		t.Error("unexpected invocation")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := fc.Snapshot(); st.Hits != 1 || st.Misses != 1 || st.Coalesced != n-1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFuncCacheCachesErrors(t *testing.T) {
	fc := NewFuncCache()
	boom := errors.New("boom")
	calls := 0
	invoke := func() (*types.Table, error) {
		if _, err := fc.Invoke("f", []types.Value{types.NewInt(1)}, func() (*types.Table, error) {
			calls++
			return nil, boom
		}); !errors.Is(err, boom) {
			return nil, fmt.Errorf("err = %v, want boom", err)
		}
		return nil, nil
	}
	if _, err := invoke(); err != nil {
		t.Fatal(err)
	}
	if _, err := invoke(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("%d calls, want 1 (errors cached within the statement)", calls)
	}
}

// closeTracker wraps an operator and records whether Close was called.
type closeTracker struct {
	Operator
	closed bool
}

func (c *closeTracker) Close() error {
	c.closed = true
	return c.Operator.Close()
}

func (c *closeTracker) Clone() Operator { return &closeTracker{Operator: c.Operator.Clone()} }

func TestRunClosesRootOnError(t *testing.T) {
	boom := errors.New("boom")
	// Right side fails on the second outer row, mid-iteration.
	fn := &fnTableFunc{name: "F", fn: func(args []types.Value) (*types.Table, error) {
		if args[0].Int() == 2 {
			return nil, boom
		}
		return fanOut(args)
	}}
	left := &closeTracker{Operator: &Values{Sch: intSchema("l"), Rows: intRows(1, 2, 3)}}
	apply := &Apply{
		Left:  left,
		Right: &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}},
	}
	root := &closeTracker{Operator: apply}
	if _, err := Run(root, &Ctx{Task: simlat.Free()}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !root.closed || !left.closed {
		t.Errorf("leak: root closed %v, left closed %v", root.closed, left.closed)
	}

	// Same regression through LeftApply.
	left2 := &closeTracker{Operator: &Values{Sch: intSchema("l"), Rows: intRows(1, 2, 3)}}
	la := &LeftApply{
		Left:  left2,
		Right: &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}},
	}
	if _, err := Run(la, &Ctx{Task: simlat.Free()}); !errors.Is(err, boom) {
		t.Fatalf("LeftApply err = %v, want %v", err, boom)
	}
	if !left2.closed {
		t.Error("LeftApply leaked its left operator on a right-side error")
	}

	// Root Open failure also closes the root.
	failing := &closeTracker{Operator: &FuncScan{
		Fn:   &fnTableFunc{name: "F", fn: func([]types.Value) (*types.Table, error) { return nil, boom }},
		Args: []Expr{Const{V: types.NewInt(1)}}, Sch: intSchema("y"),
	}}
	if _, err := Run(failing, &Ctx{Task: simlat.Free()}); !errors.Is(err, boom) {
		t.Fatalf("open err = %v, want %v", err, boom)
	}
	if !failing.closed {
		t.Error("Run leaked the root on an Open error")
	}
}

package engine

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// parallelFixture wires an engine with a counting external UDTF and a
// five-row driver table (arguments 1,2,1,2,1).
func parallelFixture(t *testing.T) (*Engine, *Session, *atomic.Int64) {
	t.Helper()
	eng := New()
	s := eng.NewSession()
	var calls atomic.Int64
	if err := eng.RegisterExternal("test.counted", func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		calls.Add(1)
		out := types.NewTable(types.Schema{{Name: "Y", Type: types.Integer}})
		out.MustAppend(types.Row{types.NewInt(args[0].Int() * 10)})
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.MustExecContext(context.Background(), "CREATE FUNCTION Counted (X INT) RETURNS TABLE (Y INT) LANGUAGE EXTERNAL NAME 'test.counted'")
	s.MustExecContext(context.Background(), "CREATE TABLE driver (X INT)")
	s.MustExecContext(context.Background(), "INSERT INTO driver VALUES (1), (2), (1), (2), (1)")
	return eng, s, &calls
}

func TestSetParallelismStatement(t *testing.T) {
	eng, s, _ := parallelFixture(t)
	query := "SELECT d.X, c.Y FROM driver d, TABLE (Counted(d.X)) AS c ORDER BY d.X, c.Y"
	want := queryRows(t, s, query)

	res := s.MustExecContext(context.Background(), "SET PARALLELISM 4")
	if res.Message != "parallelism set to 4" || eng.Parallelism() != 4 {
		t.Fatalf("SET PARALLELISM: %q, parallelism %d", res.Message, eng.Parallelism())
	}
	plan := s.MustExecContext(context.Background(), "EXPLAIN "+query).Table.String()
	if !strings.Contains(plan, "ParallelApply (dop=4)") {
		t.Errorf("EXPLAIN lacks ParallelApply:\n%s", plan)
	}
	got := queryRows(t, s, query)
	if got.String() != want.String() {
		t.Errorf("parallel result differs:\n%s\nwant:\n%s", got, want)
	}

	// SET PARALLELISM 0 restores sequential plans.
	s.MustExecContext(context.Background(), "SET PARALLELISM 0")
	plan = s.MustExecContext(context.Background(), "EXPLAIN "+query).Table.String()
	if strings.Contains(plan, "ParallelApply") {
		t.Errorf("plan still parallel after SET PARALLELISM 0:\n%s", plan)
	}

	// Negative resolves to GOMAXPROCS.
	s.MustExecContext(context.Background(), "SET PARALLELISM -1")
	if eng.Parallelism() != runtime.GOMAXPROCS(0) {
		t.Errorf("SET PARALLELISM -1 -> %d, want GOMAXPROCS %d", eng.Parallelism(), runtime.GOMAXPROCS(0))
	}

	if _, err := s.ExecContext(context.Background(), "SET NO_SUCH_OPTION 1"); err == nil {
		t.Error("unknown SET option accepted")
	}
}

func TestSessionReportsCacheStats(t *testing.T) {
	eng, s, calls := parallelFixture(t)
	query := "SELECT d.X, c.Y FROM driver d, TABLE (Counted(d.X)) AS c ORDER BY d.X, c.Y"

	// Cache off: stats stay zero.
	queryRows(t, s, query)
	if st := s.LastCacheStats(); st.Total() != 0 {
		t.Errorf("stats with cache off = %+v", st)
	}

	eng.SetFunctionCache(true)
	calls.Store(0)
	queryRows(t, s, query)
	st := s.LastCacheStats()
	if st.Misses != 2 || st.Hits != 3 || st.Coalesced != 0 {
		t.Errorf("sequential stats = %+v, want 2 misses / 3 hits", st)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}

	// Under parallelism the totals are preserved: five lookups, two
	// underlying invocations, the rest hits or coalesced joins.
	eng.SetParallelism(4)
	calls.Store(0)
	queryRows(t, s, query)
	st = s.LastCacheStats()
	if st.Total() != 5 || st.Misses != 2 {
		t.Errorf("parallel stats = %+v, want 2 misses in 5 lookups", st)
	}
	if calls.Load() != 2 {
		t.Errorf("parallel calls = %d, want 2 (singleflight)", calls.Load())
	}
}

func TestParallelismPreservesVirtualAccounting(t *testing.T) {
	// A costed external: parallel execution must report the max-branch
	// virtual elapsed time, not the sum.
	eng := New()
	s := eng.NewSession()
	const cost = 10 * simlat.PaperMS
	if err := eng.RegisterExternal("test.slow", func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		task.Spend(cost)
		out := types.NewTable(types.Schema{{Name: "Y", Type: types.Integer}})
		out.MustAppend(types.Row{types.NewInt(args[0].Int())})
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.MustExecContext(context.Background(), "CREATE FUNCTION Slow (X INT) RETURNS TABLE (Y INT) LANGUAGE EXTERNAL NAME 'test.slow'")
	s.MustExecContext(context.Background(), "CREATE TABLE nums (X INT)")
	for i := 0; i < 16; i++ {
		s.MustExecContext(context.Background(), "INSERT INTO nums VALUES ("+string(rune('0'+i%8))+")")
	}
	query := "SELECT COUNT(*) FROM nums n, TABLE (Slow(n.X)) AS f"

	measure := func() int64 {
		task := simlat.NewVirtualTask()
		s.SetTask(task)
		queryRows(t, s, query)
		return int64(task.Elapsed())
	}
	seq := measure()
	eng.SetParallelism(4)
	par := measure()
	if want := int64(16 * cost); seq != want {
		t.Errorf("sequential elapsed = %d, want %d", seq, want)
	}
	if want := int64(4 * cost); par != want {
		t.Errorf("parallel elapsed = %d, want %d (max branch of 4 rows each)", par, want)
	}
}

package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// times registers the external implementation name, which answers one row
// holding its argument times k.
func times(t *testing.T, eng *Engine, name string, k int64) {
	t.Helper()
	if err := eng.RegisterExternal(name, func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		out := types.NewTable(types.Schema{{Name: "Y", Type: types.Integer}})
		out.MustAppend(types.Row{types.NewInt(args[0].Int() * k)})
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// scalar runs a one-row, one-column query and returns its value.
func scalar(t *testing.T, s *Session, sql string) types.Value {
	t.Helper()
	tab := queryRows(t, s, sql)
	if tab.Len() != 1 || len(tab.Schema) != 1 {
		t.Fatalf("%s:\n%s", sql, tab)
	}
	return tab.Rows[0][0]
}

// TestBodyPlanFollowsRecreatedFunction: an I-UDTF's kept plan calls the
// A-UDTF its body names, so dropping and re-creating that function with
// another answer between two calls must reach the second call.
func TestBodyPlanFollowsRecreatedFunction(t *testing.T) {
	eng := New()
	times(t, eng, "test.ten", 10)
	times(t, eng, "test.hundred", 100)
	s := eng.NewSession()
	s.MustExecContext(context.Background(), "CREATE FUNCTION A (X INT) RETURNS TABLE (Y INT) LANGUAGE EXTERNAL NAME 'test.ten'")
	s.MustExecContext(context.Background(), "CREATE FUNCTION I (P INT) RETURNS TABLE (Y INT) LANGUAGE SQL RETURN SELECT a.Y FROM TABLE (A(I.P)) AS a")
	const q = "SELECT r.Y FROM TABLE (I(5)) AS r"
	if v := scalar(t, s, q); v.Int() != 50 {
		t.Fatalf("first call = %v, want 50", v)
	}
	s.MustExecContext(context.Background(), "DROP FUNCTION A")
	s.MustExecContext(context.Background(), "CREATE FUNCTION A (X INT) RETURNS TABLE (Y INT) LANGUAGE EXTERNAL NAME 'test.hundred'")
	if v := scalar(t, s, q); v.Int() != 500 {
		t.Errorf("after re-creating A, call = %v, want 500", v)
	}
}

// TestBodyPlanFollowsRecreatedTable: a body's kept plan scans the table it
// names, so a table dropped and re-created with its columns in another
// order must be read afresh, by name.
func TestBodyPlanFollowsRecreatedTable(t *testing.T) {
	s := New().NewSession()
	ctx := context.Background()
	s.MustExecContext(ctx, "CREATE TABLE t (a INT, b VARCHAR)")
	s.MustExecContext(ctx, "INSERT INTO t VALUES (1, 'old')")
	s.MustExecContext(ctx, "CREATE FUNCTION F (P INT) RETURNS TABLE (B VARCHAR) LANGUAGE SQL RETURN SELECT t.b FROM t WHERE t.a = F.P")
	const q = "SELECT r.B FROM TABLE (F(1)) AS r"
	if v := scalar(t, s, q); v.Str() != "old" {
		t.Fatalf("first call = %v, want old", v)
	}
	s.MustExecContext(ctx, "DROP TABLE t")
	s.MustExecContext(ctx, "CREATE TABLE t (b VARCHAR, a INT)")
	s.MustExecContext(ctx, "INSERT INTO t VALUES ('new', 1)")
	if v := scalar(t, s, q); v.Str() != "new" {
		t.Errorf("after re-creating t, call = %v, want new", v)
	}
}

// TestBodyPlanFollowsNewIndex: CREATE INDEX after a body's first call
// gives its next call the index lookup a fresh plan would choose.
func TestBodyPlanFollowsNewIndex(t *testing.T) {
	s := New().NewSession()
	ctx := context.Background()
	s.MustExecContext(ctx, "CREATE TABLE t (a INT, b INT)")
	s.MustExecContext(ctx, "INSERT INTO t VALUES (7, 1), (8, 2)")
	s.MustExecContext(ctx, "CREATE FUNCTION F (P INT) RETURNS TABLE (V INT) LANGUAGE SQL RETURN SELECT t.b + F.P FROM t WHERE t.a = 7")
	const q = "SELECT r.V FROM TABLE (F(10)) AS r"
	if v := scalar(t, s, q); v.Int() != 11 {
		t.Fatalf("first call = %v, want 11", v)
	}
	kept, _, err := ExplainBody(s, "F")
	if err != nil || !strings.Contains(kept, "TableScan t") {
		t.Fatalf("plan before the index: %v\n%s", err, kept)
	}
	s.MustExecContext(ctx, "CREATE INDEX ta ON t (a)")
	if v := scalar(t, s, q); v.Int() != 11 {
		t.Fatalf("call after the index = %v, want 11", v)
	}
	kept, fresh, err := ExplainBody(s, "F")
	if err != nil || kept != fresh || !strings.Contains(kept, "IndexScan t (a = 7)") {
		t.Errorf("plan after CREATE INDEX: %v\n%s\nfresh:\n%s", err, kept, fresh)
	}
}

// sharedFixture wires an engine with an A-UDTF Counted (times 10), a
// twelve-row driver table and an I-UDTF whose body joins two Counted
// calls laterally, so its plan depends on the session's parallelism and
// batch size.
func sharedFixture(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	times(t, eng, "test.counted", 10)
	s := eng.NewSession()
	ctx := context.Background()
	s.MustExecContext(ctx, "CREATE TABLE driver (X INT)")
	for i := 1; i <= 12; i++ {
		s.MustExecContext(ctx, fmt.Sprintf("INSERT INTO driver VALUES (%d)", i))
	}
	s.MustExecContext(ctx, "CREATE FUNCTION Counted (X INT) RETURNS TABLE (Y INT) LANGUAGE EXTERNAL NAME 'test.counted'")
	s.MustExecContext(ctx, `CREATE FUNCTION F (P INT) RETURNS TABLE (A INT, B INT) LANGUAGE SQL RETURN
		SELECT x.Y, z.Y FROM TABLE (Counted(F.P)) AS x, TABLE (Counted(x.Y)) AS z`)
	return eng
}

const sharedQuery = "SELECT d.X, r.A, r.B FROM driver d, TABLE (F(d.X)) AS r ORDER BY d.X"

// TestBodyPlanSharedAcrossSessions: eight sessions at different SET
// PARALLELISM and BATCH_SIZE values call one I-UDTF concurrently. Every
// call agrees with the answer of a freshly built engine, and each session
// runs the plan its own options compile to.
func TestBodyPlanSharedAcrossSessions(t *testing.T) {
	want := queryRows(t, sharedFixture(t).NewSession(), sharedQuery).String()
	eng := sharedFixture(t)
	settings := [][2]int{{0, 0}, {2, 0}, {4, 0}, {0, 2}, {0, 3}, {2, 3}, {4, 8}, {3, 5}}
	var wg sync.WaitGroup
	errs := make(chan error, len(settings))
	for _, set := range settings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := eng.NewSession()
			ctx := context.Background()
			s.MustExecContext(ctx, fmt.Sprintf("SET PARALLELISM %d", set[0]))
			s.MustExecContext(ctx, fmt.Sprintf("SET BATCH_SIZE %d", set[1]))
			for i := 0; i < 20; i++ {
				got, err := s.QueryContext(ctx, sharedQuery)
				if err != nil {
					errs <- err
					return
				}
				if got.String() != want {
					errs <- fmt.Errorf("dop %d, batch %d:\n%s\nwant:\n%s", set[0], set[1], got, want)
					return
				}
			}
			if kept, fresh, err := ExplainBody(s, "F"); err != nil || kept != fresh {
				errs <- fmt.Errorf("dop %d, batch %d runs\n%s\nnot the fresh plan\n%s(%v)", set[0], set[1], kept, fresh, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBodyPlanOncePerLateralStatement: a lateral statement over twelve
// outer rows runs the I-UDTF's body twelve times on the plan kept since
// its first call; no call plans it again.
func TestBodyPlanOncePerLateralStatement(t *testing.T) {
	s := sharedFixture(t).NewSession()
	kept := KeptBodyPlan(s, "F") // CREATE FUNCTION's validation plan
	if kept == nil {
		t.Fatal("CREATE FUNCTION kept no plan")
	}
	queryRows(t, s, sharedQuery)
	if got := KeptBodyPlan(s, "F"); got != kept {
		t.Error("the lateral statement planned the body again")
	}
	if n := s.Engine().BodyPlans(); n != 1 {
		t.Errorf("cache keeps %d plans, want 1", n)
	}
}

// TestBodyPlanCacheBoundedUnderBatchSizeCycling: a session that cycles SET
// BATCH_SIZE through 2..200 leaves one plan of the body, the one its
// latest options compile to.
func TestBodyPlanCacheBoundedUnderBatchSizeCycling(t *testing.T) {
	eng := sharedFixture(t)
	s := eng.NewSession()
	ctx := context.Background()
	for n := 2; n <= 200; n++ {
		s.MustExecContext(ctx, fmt.Sprintf("SET BATCH_SIZE %d", n))
		queryRows(t, s, sharedQuery)
	}
	if n := eng.BodyPlans(); n != 1 {
		t.Errorf("cache keeps %d plans, want 1", n)
	}
	if KeptBodyPlan(s, "F") == nil {
		t.Error("no plan kept under the session's last options")
	}
}

// TestBodyPlanCacheBoundedUnderFailingCreate: a CREATE FUNCTION that
// fails — its name is taken, or its body does not compile — keeps no plan,
// so a client repeating one does not grow the cache.
func TestBodyPlanCacheBoundedUnderFailingCreate(t *testing.T) {
	eng := sharedFixture(t)
	s := eng.NewSession()
	for _, sql := range []string{
		"CREATE FUNCTION F (P INT) RETURNS TABLE (Y INT) LANGUAGE SQL RETURN SELECT d.X FROM driver d WHERE d.X = F.P",
		"CREATE FUNCTION G (P INT) RETURNS TABLE (Y INT) LANGUAGE SQL RETURN SELECT d.Nope FROM driver d",
	} {
		for i := 0; i < 50; i++ {
			if _, err := s.ExecContext(context.Background(), sql); err == nil {
				t.Fatalf("%s: no error", sql)
			}
		}
	}
	if n := eng.BodyPlans(); n != 1 {
		t.Errorf("cache keeps %d plans, want 1 (F's)", n)
	}
}

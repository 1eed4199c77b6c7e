package engine

import (
	"context"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// TestFunctionCacheMemoisesLateralCalls checks the optimizer extension:
// with the per-statement function cache enabled, a lateral UDTF invoked
// repeatedly with the same arguments executes once.
func TestFunctionCacheMemoisesLateralCalls(t *testing.T) {
	eng := New()
	s := eng.NewSession()
	calls := 0
	if err := eng.RegisterExternal("test.counted", func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		calls++
		out := types.NewTable(types.Schema{{Name: "Y", Type: types.Integer}})
		out.MustAppend(types.Row{types.NewInt(args[0].Int() * 10)})
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.MustExecContext(context.Background(), "CREATE FUNCTION Counted (X INT) RETURNS TABLE (Y INT) LANGUAGE EXTERNAL NAME 'test.counted'")
	s.MustExecContext(context.Background(), "CREATE TABLE driver (X INT)")
	s.MustExecContext(context.Background(), "INSERT INTO driver VALUES (1), (2), (1), (2), (1)")

	query := "SELECT d.X, c.Y FROM driver d, TABLE (Counted(d.X)) AS c ORDER BY d.X"

	// Without the cache: one invocation per driver row.
	tab := queryRows(t, s, query)
	if calls != 5 || tab.Len() != 5 {
		t.Fatalf("uncached: calls=%d rows=%d", calls, tab.Len())
	}

	// With the cache: one invocation per distinct argument vector.
	eng.SetFunctionCache(true)
	calls = 0
	tab2 := queryRows(t, s, query)
	if calls != 2 {
		t.Errorf("cached: calls = %d, want 2", calls)
	}
	// Results identical either way.
	if tab2.Len() != tab.Len() {
		t.Fatalf("cached result differs: %d vs %d rows", tab2.Len(), tab.Len())
	}
	for i := range tab.Rows {
		if !tab.Rows[i].Equal(tab2.Rows[i]) {
			t.Errorf("row %d differs: %v vs %v", i, tab.Rows[i], tab2.Rows[i])
		}
	}
	// The cache is per statement: a fresh query re-invokes.
	calls = 0
	queryRows(t, s, "SELECT c.Y FROM TABLE (Counted(1)) AS c")
	if calls != 1 {
		t.Errorf("fresh statement: calls = %d, want 1", calls)
	}
}

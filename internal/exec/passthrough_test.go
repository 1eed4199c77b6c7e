package exec_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"fedwf/internal/engine"
	"fedwf/internal/types"
)

// passThroughStatements exercise every shape a projection takes: the
// identity, a leading prefix, permuted, duplicated and computed columns,
// SELECT * over a join, the trim projection that drops a hidden ORDER BY
// column, DISTINCT, UNION ALL, projections on the right side of a lateral
// join (a derived table, a view, and an SQL table function's body), and
// EXPLAIN ANALYZE over one of them.
var passThroughStatements = []string{
	"SELECT K, V, S FROM t WHERE K >= 3",
	"SELECT * FROM t",
	"SELECT K, V FROM t",
	"SELECT K FROM t WHERE V > 20",
	"SELECT S, K, V FROM t",
	"SELECT K, K, V FROM t",
	"SELECT V, V FROM t WHERE K < 4",
	"SELECT K, V + 1, S FROM t",
	"SELECT K, V, 'x' FROM t WHERE K < 3",
	"SELECT * FROM t, u WHERE t.K = u.K",
	"SELECT t.K, t.V, u.W FROM t, u WHERE t.K = u.K",
	"SELECT K, S FROM t ORDER BY V DESC, K",
	"SELECT K, V FROM t ORDER BY S DESC",
	"SELECT DISTINCT V FROM t",
	"SELECT DISTINCT K, V FROM t WHERE K < 5",
	"SELECT K, V FROM t WHERE K < 3 UNION ALL SELECT K, W FROM u",
	"SELECT K FROM t WHERE K < 3 UNION SELECT K FROM u",
	"SELECT d.X, s.K, s.V FROM src d, (SELECT K, V FROM t) AS s WHERE s.K > d.X AND s.K < d.X + 3",
	"SELECT d.X, v.K FROM src d, tv v WHERE v.K = d.X",
	"SELECT d.X, a.K, a.V FROM src d, TABLE (Above(d.X)) AS a",
	"SELECT d.X, a.K FROM src d LEFT JOIN TABLE (Above(d.X + 6)) AS a ON 1 = 1",
	"SELECT K, V, S FROM t LIMIT 2 OFFSET 1",
	"SELECT V, COUNT(*) FROM t GROUP BY V ORDER BY V",
	"EXPLAIN SELECT K, V FROM t ORDER BY S DESC",
	"EXPLAIN ANALYZE SELECT d.X, a.K, a.V FROM src d, TABLE (Above(d.X)) AS a",
}

func passThroughSession(t *testing.T) *engine.Session {
	t.Helper()
	s := engine.New().NewSession()
	ctx := context.Background()
	s.MustExecContext(ctx, "CREATE TABLE t (K INT, V INT, S VARCHAR(16))")
	s.MustExecContext(ctx, "CREATE TABLE u (K INT, W INT)")
	s.MustExecContext(ctx, "CREATE TABLE src (X INT)")
	for i := 0; i < 10; i++ {
		s.MustExecContext(ctx, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'row-%d')", i, i*7%5*10, i))
	}
	for i := 0; i < 10; i += 2 {
		s.MustExecContext(ctx, fmt.Sprintf("INSERT INTO u VALUES (%d, %d)", i, 100+i))
	}
	for _, x := range []int{1, 4, 6, 8} {
		s.MustExecContext(ctx, fmt.Sprintf("INSERT INTO src VALUES (%d)", x))
	}
	s.MustExecContext(ctx, "CREATE VIEW tv AS SELECT K, V FROM t")
	s.MustExecContext(ctx, `CREATE FUNCTION Above (X INT) RETURNS TABLE (K INT, V INT)
		LANGUAGE SQL RETURN SELECT K, V FROM t WHERE K > Above.X AND K <= Above.X + 2`)
	return s
}

// renderResult is a result's schema, with types, and its rows.
func renderResult(tab *types.Table) string {
	var b strings.Builder
	for i, c := range tab.Schema {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name + " " + c.Type.String())
	}
	b.WriteByte('\n')
	b.WriteString(tab.String())
	return b.String()
}

// TestProjectionPassThrough pins the results of every projection shape and
// the aliasing contract of a result row: it is capped at its length, so an
// append to it reallocates and changes neither the table it may have been
// read from nor a later execution of the same statement.
func TestProjectionPassThrough(t *testing.T) {
	s := passThroughSession(t)
	ctx := context.Background()
	run := func() ([]*types.Table, string) {
		var b strings.Builder
		var tabs []*types.Table
		for _, sql := range passThroughStatements {
			res, err := s.ExecContext(ctx, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			tabs = append(tabs, res.Table)
			fmt.Fprintf(&b, "-- %s\n%s\n", sql, renderResult(res.Table))
		}
		return tabs, b.String()
	}
	tabs, first := run()
	for i, tab := range tabs {
		for j, r := range tab.Rows {
			if cap(r) != len(r) {
				t.Errorf("%s: row %d has len %d, cap %d", passThroughStatements[i], j, len(r), cap(r))
			}
			grown := append(r, types.NewString("appended"))
			for k := range grown {
				grown[k] = types.NewInt(-1)
			}
		}
	}
	if _, again := run(); again != first {
		t.Errorf("appending to result rows changed a later execution:\n%s\nwant\n%s", again, first)
	}
	want, err := os.ReadFile("testdata/passthrough.golden")
	if err != nil {
		t.Fatal(err)
	}
	if first != string(want) {
		t.Errorf("results differ from testdata/passthrough.golden; got:\n%s", first)
	}
}

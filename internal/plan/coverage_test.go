package plan

import (
	"context"
	"strings"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/exec"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// TestAllExpressionKindsCompile drives every AST node kind through the
// expression compiler via real queries.
func TestAllExpressionKindsCompile(t *testing.T) {
	cat := testCatalog(t)
	queries := []struct {
		sql  string
		rows int
	}{
		{"SELECT No FROM suppliers WHERE No IN (1, 3)", 1},
		{"SELECT No FROM suppliers WHERE No NOT IN (1)", 1},
		{"SELECT No FROM suppliers WHERE No BETWEEN 1 AND 1", 1},
		{"SELECT No FROM suppliers WHERE Name LIKE 'A%'", 1},
		{"SELECT No FROM suppliers WHERE Name NOT LIKE 'A%'", 1},
		{"SELECT No FROM suppliers WHERE Name IS NULL", 0},
		{"SELECT No FROM suppliers WHERE Name IS NOT NULL", 2},
		{"SELECT No FROM suppliers WHERE NOT (No = 1)", 1},
		{"SELECT No FROM suppliers WHERE CAST(No AS DOUBLE) > 1.5", 1},
		{"SELECT CASE WHEN No = 1 THEN 'one' ELSE 'many' END FROM suppliers", 2},
		{"SELECT -No FROM suppliers WHERE No = 1", 1},
		{"SELECT Name || '!' FROM suppliers WHERE No = 1", 1},
		{"SELECT UPPER(Name) FROM suppliers WHERE LOWER(Name) = 'acme'", 1},
		{"SELECT No FROM suppliers WHERE No = 1 OR No = 2", 2},
		{"SELECT TRUE, FALSE, NULL FROM suppliers WHERE No = 1", 1},
	}
	for _, q := range queries {
		tab := run(t, cat, q.sql, nil)
		if tab.Len() != q.rows {
			t.Errorf("%s: %d rows, want %d", q.sql, tab.Len(), q.rows)
		}
	}
}

// TestAggregateEnvironmentRewrites drives every node kind through the
// post-aggregation rewriter.
func TestAggregateEnvironmentRewrites(t *testing.T) {
	cat := testCatalog(t)
	queries := []struct {
		sql  string
		rows int
	}{
		{"SELECT COUNT(*) + 1 FROM parts", 1},
		{"SELECT -COUNT(*) FROM parts", 1},
		{"SELECT COUNT(*) FROM parts HAVING COUNT(*) IS NOT NULL", 1},
		{"SELECT SuppNo FROM parts GROUP BY SuppNo HAVING COUNT(*) BETWEEN 1 AND 9 ORDER BY SuppNo", 2},
		{"SELECT SuppNo FROM parts GROUP BY SuppNo HAVING SuppNo IN (1)", 1},
		{"SELECT SuppNo FROM parts GROUP BY SuppNo HAVING CAST(COUNT(*) AS DOUBLE) > 1.5", 1},
		{"SELECT CASE WHEN COUNT(*) > 2 THEN 'many' ELSE 'few' END FROM parts", 1},
		{"SELECT UPPER(CAST(SuppNo AS VARCHAR)) FROM parts GROUP BY SuppNo ORDER BY 1", 2},
		{"SELECT COUNT(*) FROM parts HAVING NOT (COUNT(*) = 0)", 1},
		{"SELECT SuppNo FROM parts GROUP BY SuppNo HAVING CAST(SuppNo AS VARCHAR) LIKE '1%'", 1},
		{"SELECT SuppNo, COUNT(*) FROM parts GROUP BY SuppNo ORDER BY COUNT(*) DESC, SuppNo", 2},
	}
	for _, q := range queries {
		tab := run(t, cat, q.sql, nil)
		if tab.Len() != q.rows {
			t.Errorf("%s: %d rows, want %d", q.sql, tab.Len(), q.rows)
		}
	}
	// Parameter references survive the aggregate rewriter.
	params := map[string]types.Value{"minc": types.NewInt(1)}
	tab := run(t, cat, "SELECT COUNT(*) FROM parts HAVING COUNT(*) > minc", params)
	if tab.Len() != 1 {
		t.Errorf("param in HAVING: %d rows", tab.Len())
	}
}

// remoteProbe records what gets pushed down.
type remoteProbe struct {
	schema types.Schema
	data   []types.Row
	lastQ  string
}

func (r *remoteProbe) Name() string { return "probe" }
func (r *remoteProbe) TableSchemaContext(_ context.Context, remote string) (types.Schema, error) {
	return r.schema, nil
}
func (r *remoteProbe) QueryContext(_ context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, error) {
	r.lastQ = sel.String()
	out := types.NewTable(r.schema)
	// Honour the WHERE clause so results stay correct: re-run locally.
	cat := catalog.New()
	tab, err := cat.CreateTable("rt", r.schema)
	if err != nil {
		return nil, err
	}
	for _, row := range r.data {
		if err := tab.Insert(row); err != nil {
			return nil, err
		}
	}
	op, err := CompileSelect(cat, rewriteFrom(sel), nil)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(op, &exec.Ctx{Task: simlat.Free()})
	if err != nil {
		return nil, err
	}
	out.Rows = res.Rows
	return out, nil
}

// rewriteFrom retargets the pushed-down query at the probe's local table.
func rewriteFrom(sel *sqlparser.Select) *sqlparser.Select {
	cp := *sel
	cp.From = []sqlparser.FromItem{&sqlparser.TableRef{Name: "rt"}}
	return &cp
}

func TestRemotePushdownExpressionKinds(t *testing.T) {
	probe := &remoteProbe{
		schema: types.Schema{
			{Name: "K", Type: types.Integer},
			{Name: "S", Type: types.VarCharN(10)},
		},
		data: []types.Row{
			{types.NewInt(1), types.NewString("aa")},
			{types.NewInt(2), types.NewString("ab")},
			{types.NewInt(3), types.NewString("bb")},
			{types.Null, types.NewString("nn")},
		},
	}
	cat := catalog.New()
	if err := cat.AddServer(probe); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateNicknameContext(context.Background(), "rp", "probe", "whatever"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		where string
		rows  int
		push  string // substring expected inside the remote query
	}{
		{"K = 1", 1, "K = 1"},
		{"K IN (1, 3)", 2, "IN"},
		{"K BETWEEN 2 AND 3", 2, "BETWEEN"},
		{"S LIKE 'a%'", 2, "LIKE"},
		{"K IS NULL", 1, "IS NULL"},
		{"NOT (K = 1)", 2, "NOT"},
		{"rp.K = 2 AND rp.S = 'ab'", 1, "K = 2"},
	}
	for _, c := range cases {
		probe.lastQ = ""
		sql := "SELECT K, S FROM rp WHERE " + c.where
		tab := run(t, cat, sql, nil)
		if tab.Len() != c.rows {
			t.Errorf("%s: %d rows, want %d", sql, tab.Len(), c.rows)
		}
		if !strings.Contains(probe.lastQ, c.push) {
			t.Errorf("%s: pushdown %q missing %q", sql, probe.lastQ, c.push)
		}
	}
	// Non-pushable expressions stay local: the remote sees no WHERE.
	probe.lastQ = ""
	tab := run(t, cat, "SELECT K FROM rp WHERE UPPER(S) = 'AA'", nil)
	if tab.Len() != 1 {
		t.Errorf("scalar-function filter: %d rows", tab.Len())
	}
	if strings.Contains(probe.lastQ, "WHERE") {
		t.Errorf("non-pushable expression pushed: %q", probe.lastQ)
	}
	// CASE is not pushable either.
	probe.lastQ = ""
	run(t, cat, "SELECT K FROM rp WHERE CASE WHEN K = 1 THEN TRUE ELSE FALSE END", nil)
	if strings.Contains(probe.lastQ, "WHERE") {
		t.Errorf("CASE pushed: %q", probe.lastQ)
	}
	// Predicates spanning remote and local columns stay local.
	if _, err := cat.CreateTable("loc", types.Schema{{Name: "K", Type: types.Integer}}); err != nil {
		t.Fatal(err)
	}
	probe.lastQ = ""
	run(t, cat, "SELECT rp.K FROM rp, loc WHERE rp.K = loc.K", nil)
	if strings.Contains(probe.lastQ, "WHERE") {
		t.Errorf("cross-source predicate pushed: %q", probe.lastQ)
	}
}

func TestSelectHasAggregatesWalks(t *testing.T) {
	cat := testCatalog(t)
	// Aggregates nested inside every expression kind are detected (these
	// must be planned as scalar aggregates, yielding one row).
	for _, sql := range []string{
		"SELECT COUNT(*) + 1 FROM parts",
		"SELECT NOT (COUNT(*) = 0) FROM parts",
		"SELECT COUNT(*) IS NULL FROM parts",
		"SELECT COUNT(*) BETWEEN 1 AND 9 FROM parts",
		"SELECT COUNT(*) IN (3) FROM parts",
		"SELECT CAST(COUNT(*) AS VARCHAR) LIKE '3' FROM parts",
		"SELECT CASE WHEN TRUE THEN COUNT(*) END FROM parts",
		"SELECT ABS(COUNT(*)) FROM parts",
	} {
		tab := run(t, cat, sql, nil)
		if tab.Len() != 1 {
			t.Errorf("%s: %d rows, want 1 (scalar aggregate)", sql, tab.Len())
		}
	}
}

// TestInferTypeThroughQueries exercises type inference across output
// schemas.
func TestInferTypeThroughQueries(t *testing.T) {
	cat := testCatalog(t)
	tab := run(t, cat, `SELECT
		No + 1,
		No / 2.0,
		Name || 'x',
		No > 1,
		CAST(No AS SMALLINT),
		CASE WHEN No = 1 THEN 'a' ELSE 'b' END,
		COALESCE(Name, 'none'),
		LENGTH(Name)
		FROM suppliers WHERE No = 1`, nil)
	want := []types.BaseType{
		types.BigIntType, types.DoubleType, types.VarCharType, types.BooleanType,
		types.SmallIntType, types.VarCharType, types.VarCharType, types.BigIntType,
	}
	for i, w := range want {
		if tab.Schema[i].Type.Base != w {
			t.Errorf("column %d inferred %v, want %v", i, tab.Schema[i].Type.Base, w)
		}
	}
	// Aggregate output types.
	tab = run(t, cat, "SELECT COUNT(*), AVG(No), MIN(Name) FROM suppliers", nil)
	if tab.Schema[0].Type != types.BigInt || tab.Schema[1].Type != types.Double {
		t.Errorf("aggregate types: %v", tab.Schema)
	}
}

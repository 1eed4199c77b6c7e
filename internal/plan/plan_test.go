package plan

import (
	"strings"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/exec"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// testCatalog builds a catalog with two tables and two table functions.
func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	sup, err := cat.CreateTable("suppliers", types.Schema{
		{Name: "No", Type: types.Integer},
		{Name: "Name", Type: types.VarCharN(30)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.InsertAll([]types.Row{
		{types.NewInt(1), types.NewString("ACME")},
		{types.NewInt(2), types.NewString("Globex")},
	}); err != nil {
		t.Fatal(err)
	}
	parts, err := cat.CreateTable("parts", types.Schema{
		{Name: "PartNo", Type: types.Integer},
		{Name: "SuppNo", Type: types.Integer},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := parts.InsertAll([]types.Row{
		{types.NewInt(10), types.NewInt(1)},
		{types.NewInt(11), types.NewInt(2)},
		{types.NewInt(12), types.NewInt(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterFunc(&catalog.GoFunc{
		FName:    "Twice",
		FParams:  []types.Column{{Name: "x", Type: types.Integer}},
		FReturns: types.Schema{{Name: "y", Type: types.Integer}},
		Fn: func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
			out := types.NewTable(types.Schema{{Name: "y", Type: types.Integer}})
			out.MustAppend(types.Row{types.NewInt(2 * args[0].Int())})
			return out, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterFunc(&catalog.GoFunc{
		FName:    "Nums",
		FParams:  nil,
		FReturns: types.Schema{{Name: "n", Type: types.Integer}},
		Fn: func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
			out := types.NewTable(types.Schema{{Name: "n", Type: types.Integer}})
			for i := int64(1); i <= 3; i++ {
				out.MustAppend(types.Row{types.NewInt(i)})
			}
			return out, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// arg is one column of a test's bound row: its declaration and its value.
type arg struct {
	catalog.Param
	v types.Value
}

// getxLim is the parameter lim of a function GetX, bound to 1.
var getxLim = []arg{{catalog.Param{Corr: "GetX", Name: "lim", Type: types.Integer}, types.NewInt(1)}}

func compile(t *testing.T, cat *catalog.Catalog, sql string, args []arg) exec.Operator {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	var params []catalog.Param
	for _, a := range args {
		params = append(params, a.Param)
	}
	op, err := CompileSelect(cat, sel, params)
	if err != nil {
		t.Fatalf("CompileSelect(%q): %v", sql, err)
	}
	return op
}

func run(t *testing.T, cat *catalog.Catalog, sql string, args []arg) *types.Table {
	t.Helper()
	op := compile(t, cat, sql, args)
	var bind types.Row
	for _, a := range args {
		bind = append(bind, a.v)
	}
	tab, err := exec.Run(op, &exec.Ctx{Task: simlat.Free(), Params: bind})
	if err != nil {
		t.Fatalf("Run(%q): %v", sql, err)
	}
	return tab
}

func planOf(t *testing.T, cat *catalog.Catalog, sql string) string {
	t.Helper()
	return exec.ExplainString(compile(t, cat, sql, nil))
}

func TestHashJoinSelectedForIndependentEquiJoin(t *testing.T) {
	cat := testCatalog(t)
	p := planOf(t, cat, "SELECT s.Name FROM suppliers s, parts p WHERE s.No = p.SuppNo")
	if !strings.Contains(p, "HashJoin") {
		t.Errorf("plan lacks HashJoin:\n%s", p)
	}
	// The equi conjunct must not reappear as a filter.
	if strings.Contains(p, "Filter") {
		t.Errorf("equi conjunct double-applied:\n%s", p)
	}
}

func TestHashJoinAblation(t *testing.T) {
	cat := testCatalog(t)
	sel, err := sqlparser.ParseSelect("SELECT s.Name FROM suppliers s, parts p WHERE s.No = p.SuppNo ORDER BY s.Name, p.PartNo")
	if err != nil {
		t.Fatal(err)
	}
	withHJ, err := CompileSelectOpts(cat, sel, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withoutHJ, err := CompileSelectOpts(cat, sel, nil, Options{DisableHashJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.ExplainString(withHJ), "HashJoin") {
		t.Error("default plan lacks HashJoin")
	}
	p := exec.ExplainString(withoutHJ)
	if strings.Contains(p, "HashJoin") || !strings.Contains(p, "Apply") {
		t.Errorf("ablated plan:\n%s", p)
	}
	// Both strategies produce identical results.
	r1, err := exec.Run(withHJ, &exec.Ctx{Task: simlat.Free()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Run(withoutHJ, &exec.Ctx{Task: simlat.Free()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Fatalf("row counts differ: %d vs %d", r1.Len(), r2.Len())
	}
	for i := range r1.Rows {
		if !r1.Rows[i].Equal(r2.Rows[i]) {
			t.Errorf("row %d differs: %v vs %v", i, r1.Rows[i], r2.Rows[i])
		}
	}
}

func TestLateralForcesApply(t *testing.T) {
	cat := testCatalog(t)
	p := planOf(t, cat, "SELECT tw.y FROM suppliers s, TABLE (Twice(s.No)) AS tw")
	if !strings.Contains(p, "Apply (lateral)") {
		t.Errorf("plan lacks lateral Apply:\n%s", p)
	}
	if strings.Contains(p, "HashJoin") {
		t.Errorf("lateral wrongly hash-joined:\n%s", p)
	}
	tab := run(t, cat, "SELECT s.No, tw.y FROM suppliers s, TABLE (Twice(s.No)) AS tw ORDER BY s.No", nil)
	if tab.Len() != 2 || tab.Rows[0][1].Int() != 2 || tab.Rows[1][1].Int() != 4 {
		t.Errorf("lateral result:\n%s", tab)
	}
}

func TestPredicatePushdownPlacement(t *testing.T) {
	cat := testCatalog(t)
	// The single-table conjunct must attach below the join (before parts
	// joins in), the join conjunct at the join.
	p := planOf(t, cat, "SELECT s.Name FROM suppliers s, parts p WHERE s.No = p.SuppNo AND s.Name = 'ACME'")
	idxFilter := strings.Index(p, "Filter")
	idxJoin := strings.Index(p, "HashJoin")
	if idxFilter < 0 || idxJoin < 0 || idxFilter < idxJoin {
		t.Errorf("single-table filter not pushed below the join:\n%s", p)
	}
	tab := run(t, cat, "SELECT p.PartNo FROM suppliers s, parts p WHERE s.No = p.SuppNo AND s.Name = 'ACME' ORDER BY p.PartNo", nil)
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 10 {
		t.Errorf("pushdown result:\n%s", tab)
	}
}

func TestParameterResolution(t *testing.T) {
	cat := testCatalog(t)
	tab := run(t, cat, "SELECT No FROM suppliers WHERE No > lim", getxLim)
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 2 {
		t.Errorf("bare param:\n%s", tab)
	}
	tab = run(t, cat, "SELECT No FROM suppliers WHERE No > GetX.lim", getxLim)
	if tab.Len() != 1 {
		t.Errorf("qualified param:\n%s", tab)
	}
	// Scope columns shadow parameters of the same name.
	no := []arg{{catalog.Param{Corr: "f", Name: "No", Type: types.Integer}, types.NewInt(99)}}
	tab = run(t, cat, "SELECT No FROM suppliers WHERE No = 1", no)
	if tab.Len() != 1 {
		t.Errorf("shadowing:\n%s", tab)
	}
}

// TestParametersAreBoundRowColumns: a parameter compiles to a read of the
// bound row wherever it appears — a table function's argument, a filter, the
// select list, a group key, a derived table — so one plan serves every row
// bound to it. It is never a literal: an indexed `col = param` keeps its
// Filter (pointKey matches literals only), and a remote scan is not handed
// a reference it cannot resolve. Its type is the declared one.
func TestParametersAreBoundRowColumns(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.CreateIndex("suppliers", "No"); err != nil {
		t.Fatal(err)
	}
	args := []arg{
		{catalog.Param{Corr: "F", Name: "n", Type: types.Integer}, types.NewInt(2)},
		{catalog.Param{Corr: "F", Name: "d", Type: types.Double}, types.Null},
	}
	const sql = `SELECT s.Name, t.y + F.n AS v, F.d AS d
		FROM suppliers s, TABLE (Twice(F.n)) AS t, (SELECT COUNT(*) AS c FROM parts WHERE SuppNo <= n) AS k
		WHERE s.No = F.n AND k.c >= n`
	op := compile(t, cat, sql, args)
	p := exec.ExplainString(op)
	for _, want := range []string{"FuncScan Twice(:n#0)", "Filter (No#0 = :n#0)", "TableScan suppliers\n"} {
		if !strings.Contains(p, want) {
			t.Errorf("plan lacks %q:\n%s", want, p)
		}
	}
	if got := op.Schema(); got[1].Type != types.BigInt || got[2].Type != types.Double {
		t.Errorf("inferred types %v, want BIGINT and DOUBLE from the declared INT and DOUBLE", got)
	}
	for _, n := range []int64{1, 2} {
		args[0].v = types.NewInt(n)
		tab := run(t, cat, sql, args)
		if tab.Len() != 1 || tab.Rows[0][1].Int() != 3*n || !tab.Rows[0][2].IsNull() {
			t.Errorf("n=%d:\n%s", n, tab)
		}
	}
}

func TestOrderByWithFunctionOutput(t *testing.T) {
	cat := testCatalog(t)
	tab := run(t, cat, "SELECT n FROM TABLE (Nums()) AS f ORDER BY n DESC LIMIT 2", nil)
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 3 {
		t.Errorf("order by:\n%s", tab)
	}
}

func TestAggregationOverFunction(t *testing.T) {
	cat := testCatalog(t)
	tab := run(t, cat, "SELECT COUNT(*), SUM(n), MIN(n) FROM TABLE (Nums()) AS f", nil)
	r := tab.Rows[0]
	if r[0].Int() != 3 || r[1].Int() != 6 || r[2].Int() != 1 {
		t.Errorf("aggregates: %v", r)
	}
	// Group expression reused in SELECT and HAVING.
	tab = run(t, cat, `SELECT MOD(n, 2) AS par, COUNT(*) FROM TABLE (Nums()) AS f
		GROUP BY MOD(n, 2) HAVING COUNT(*) > 1 ORDER BY par`, nil)
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 1 || tab.Rows[0][1].Int() != 2 {
		t.Errorf("group by expression:\n%s", tab)
	}
}

func TestCompileErrors(t *testing.T) {
	cat := testCatalog(t)
	for _, bad := range []string{
		"SELECT nope FROM suppliers",
		"SELECT s.nope FROM suppliers s",
		"SELECT x.No FROM suppliers s",                    // unknown qualifier
		"SELECT No FROM suppliers s, suppliers s",         // duplicate correlation
		"SELECT * FROM TABLE (Twice(1, 2)) AS f",          // arity
		"SELECT * FROM TABLE (NoFn(1)) AS f",              // unknown function
		"SELECT COUNT(*)",                                 // aggregate without FROM is fine? -> scalar agg over no rows... keep: it should compile
		"SELECT Name, COUNT(*) FROM suppliers",            // Name not grouped
		"SELECT COUNT(No, Name) FROM suppliers",           // aggregate arity
		"SELECT SUM(COUNT(*)) FROM suppliers",             // nested aggregate
		"SELECT * FROM suppliers GROUP BY Name",           // star with group by
		"SELECT No FROM suppliers WHERE SUM(No) > 1",      // aggregate in WHERE
		"SELECT No FROM suppliers ORDER BY 9",             // position out of range
		"SELECT DISTINCT Name FROM suppliers ORDER BY No", // distinct + hidden sort key
		"SELECT nope.* FROM suppliers s",                  // unknown star qualifier
		"SELECT *",                                        // star without FROM
	} {
		sel, err := sqlparser.ParseSelect(bad)
		if err != nil {
			t.Fatalf("parse %q: %v", bad, err)
		}
		if bad == "SELECT COUNT(*)" {
			if _, err := CompileSelect(cat, sel, nil); err != nil {
				t.Errorf("scalar aggregate without FROM should compile: %v", err)
			}
			continue
		}
		if _, err := CompileSelect(cat, sel, nil); err == nil {
			t.Errorf("CompileSelect(%q) should fail", bad)
		}
	}
}

func TestSelectWithoutFromWithWhere(t *testing.T) {
	cat := testCatalog(t)
	tab := run(t, cat, "SELECT 1 WHERE 1 = 2", nil)
	if tab.Len() != 0 {
		t.Errorf("false WHERE without FROM:\n%s", tab)
	}
	tab = run(t, cat, "SELECT 1 WHERE 1 = 1", nil)
	if tab.Len() != 1 {
		t.Errorf("true WHERE without FROM:\n%s", tab)
	}
}

func TestCompileRowExpr(t *testing.T) {
	cat := testCatalog(t)
	schema := types.Schema{{Name: "A", Type: types.Integer}, {Name: "B", Type: types.Integer}}
	e, err := CompileRowExpr(cat, "t", schema, mustExpr(t, "A + t.B"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval(types.Row{types.NewInt(2), types.NewInt(3)}, nil)
	if err != nil || v.Int() != 5 {
		t.Errorf("row expr = %v, %v", v, err)
	}
	// Constant-only compilation with nil schema.
	e, err = CompileRowExpr(cat, "", nil, mustExpr(t, "UPPER('x')"))
	if err != nil {
		t.Fatal(err)
	}
	v, err = e.Eval(nil, nil)
	if err != nil || v.Str() != "X" {
		t.Errorf("const expr = %v, %v", v, err)
	}
	if _, err := CompileRowExpr(cat, "", nil, mustExpr(t, "A")); err == nil {
		t.Error("column without schema accepted")
	}
}

// mustExpr parses an expression by wrapping it in a SELECT.
func mustExpr(t *testing.T, text string) sqlparser.Expr {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT " + text)
	if err != nil {
		t.Fatal(err)
	}
	return sel.Items[0].Expr
}

func TestBindResetIsolatesDerivedTables(t *testing.T) {
	cat := testCatalog(t)
	// A derived table containing a lateral chain sits to the right of a
	// base table: its internal column indexes must not shift.
	sql := `SELECT s.Name, d.y
		FROM suppliers s,
		     (SELECT tw.y AS y FROM TABLE (Nums()) AS f, TABLE (Twice(f.n)) AS tw WHERE f.n = 1) AS d
		WHERE s.No = 1`
	tab := run(t, cat, sql, nil)
	if tab.Len() != 1 || tab.Rows[0][1].Int() != 2 {
		t.Errorf("derived-table isolation:\n%s", tab)
	}
	p := planOf(t, cat, sql)
	if !strings.Contains(p, "BindReset") {
		t.Errorf("plan lacks BindReset:\n%s", p)
	}
}

func TestExplicitJoinConditionsStayAtJoin(t *testing.T) {
	cat := testCatalog(t)
	tab := run(t, cat, `SELECT s.Name FROM suppliers s JOIN parts p ON s.No = p.SuppNo AND p.PartNo > 10 ORDER BY s.Name`, nil)
	if tab.Len() != 2 {
		t.Errorf("join with extra condition:\n%s", tab)
	}
	// CROSS JOIN has no condition.
	tab = run(t, cat, "SELECT COUNT(*) FROM suppliers CROSS JOIN parts", nil)
	if tab.Rows[0][0].Int() != 6 {
		t.Errorf("cross join count = %v", tab.Rows[0][0])
	}
}

// TestMixedCaseNamesAllocateNothingMore: table names, correlation names and
// qualifiers resolve without regard to case, and upper-case ones cost no
// allocation the same statement in lower case does not.
func TestMixedCaseNamesAllocateNothingMore(t *testing.T) {
	cat := testCatalog(t)
	params := []catalog.Param{{Corr: "f", Name: "x", Type: types.Integer}}
	allocs := func(sql string) float64 {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := CompileSelect(cat, sel, params); err != nil {
				t.Fatal(err)
			}
		})
	}
	lower := allocs("SELECT s.Name, t.*, f.x FROM TABLE (Twice(p.SuppNo)) AS t, parts p, suppliers s WHERE s.No = p.SuppNo AND t.y > 1")
	upper := allocs("SELECT S.Name, T.*, F.X FROM TABLE (Twice(P.SuppNo)) AS T, PARTS P, Suppliers S WHERE S.No = P.SuppNo AND T.y > 1")
	if upper > lower {
		t.Errorf("upper-case names: %.0f allocs, lower case %.0f", upper, lower)
	}
}

// TestCompileErrorMessages pins the message of every error the expression
// compiler, the aggregate environment and the ORDER BY and column
// resolvers raise, by a fragment of its text.
func TestCompileErrorMessages(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT Name, COUNT(*) FROM suppliers", "column Name must appear in the GROUP BY clause or inside an aggregate"},
		{"SELECT No FROM suppliers GROUP BY Name", "column No must appear in the GROUP BY clause"},
		{"SELECT Name FROM suppliers GROUP BY Name HAVING No > 1", "column No must appear in the GROUP BY clause"},
		{"SELECT Name FROM suppliers GROUP BY Name ORDER BY No", "column No must appear in the GROUP BY clause"},
		{"SELECT No FROM suppliers WHERE SUM(No) > 1", "aggregate SUM not allowed here"},
		{"SELECT s.No FROM suppliers s JOIN parts p ON COUNT(*) > 1", "aggregate COUNT not allowed here"},
		{"SELECT s.No FROM suppliers s LEFT JOIN parts p ON MAX(p.PartNo) > 1", "aggregate MAX not allowed here"},
		{"SELECT No FROM suppliers GROUP BY SUM(No)", "aggregate SUM not allowed here"},
		{"SELECT SUM(COUNT(*)) FROM suppliers", "nested aggregate in SUM(COUNT(*))"},
		{"SELECT Name FROM suppliers GROUP BY Name HAVING MAX(MIN(No)) > 1", "nested aggregate in MAX(MIN(No))"},
		{"SELECT COUNT(No, Name) FROM suppliers", "aggregate COUNT takes exactly one argument"},
		{"SELECT No FROM suppliers s, suppliers t", "ambiguous column No"},
		{"SELECT No FROM suppliers s, suppliers s", "duplicate correlation name s"},
		{"SELECT No FROM suppliers, (SELECT No FROM suppliers) AS d", "ambiguous column No"},
		{"SELECT s.Name FROM suppliers s, (SELECT No FROM suppliers) AS d WHERE No = 1", "ambiguous column No"},
		{"SELECT COUNT(No) FROM suppliers, (SELECT No FROM suppliers) AS d", "ambiguous column No"},
		{"SELECT nope FROM suppliers", "unknown column nope"},
		{"SELECT s.nope FROM suppliers s", "unknown column s.nope"},
		{"SELECT x.No FROM suppliers s", "unknown column x.No"},
		{"SELECT No FROM suppliers WHERE nope = 1", "unknown column nope"},
		{"SELECT COUNT(nope) FROM suppliers", "unknown column nope"},
		{"SELECT * FROM TABLE (Twice(nope)) AS f", "argument 1 of Twice: plan: unknown column nope"},
		{"SELECT * FROM suppliers GROUP BY Name", "SELECT * cannot be combined with GROUP BY or aggregates"},
		{"SELECT *, COUNT(*) FROM suppliers", "SELECT * cannot be combined with GROUP BY or aggregates"},
		{"SELECT No FROM suppliers ORDER BY 9", "ORDER BY position 9 out of range"},
		{"SELECT No FROM suppliers ORDER BY 0", "ORDER BY position 0 out of range"},
		{"SELECT SuppNo, COUNT(*) FROM parts GROUP BY SuppNo ORDER BY 3", "ORDER BY position 3 out of range"},
		{"SELECT No FROM suppliers UNION SELECT SuppNo FROM parts ORDER BY 9", "ORDER BY position 9 out of range"},
		{"SELECT No FROM suppliers UNION SELECT SuppNo FROM parts ORDER BY No + 1", "ORDER BY on a UNION must name an output column or position, got (No + 1)"},
		{"SELECT No FROM suppliers UNION SELECT SuppNo FROM parts ORDER BY Name", "ORDER BY on a UNION must name an output column or position, got Name"},
		{"SELECT DISTINCT Name FROM suppliers ORDER BY No", "ORDER BY No must appear in the select list of a DISTINCT query"},
		{"SELECT UNKNOWNFN(No) FROM suppliers", "UNKNOWNFN"},
	} {
		sel, err := sqlparser.ParseSelect(tc.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.sql, err)
		}
		_, err = CompileSelect(cat, sel, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CompileSelect(%q) = %v, want an error containing %q", tc.sql, err, tc.want)
		}
	}
}

// FuzzCompile: every SELECT that parses either compiles or returns an
// error, under every planner option set of the EXPLAIN golden, and never
// panics. The catalog is testCatalog's, with one parameter (lim, also
// spelled getx.lim, as an SQL function's parameters are).
func FuzzCompile(f *testing.F) {
	cat := testCatalog(f)
	params := []catalog.Param{getxLim[0].Param}
	for _, sql := range lateralCorpus {
		f.Add(sql)
	}
	for _, sql := range []string{
		"SELECT No FROM suppliers WHERE No > lim AND Name LIKE 'A%' ORDER BY Name DESC LIMIT 1",
		"SELECT No FROM suppliers WHERE No > GetX.lim",
		"SELECT SuppNo, COUNT(*), MAX(PartNo) FROM parts GROUP BY SuppNo HAVING COUNT(*) > lim ORDER BY COUNT(*) DESC, 1",
		"SELECT s.No, COUNT(*) FROM suppliers s, parts p WHERE s.No = p.SuppNo GROUP BY s.No ORDER BY SUM(p.PartNo)",
		"SELECT DISTINCT UPPER(Name) AS u FROM suppliers ORDER BY u",
		"SELECT No FROM suppliers UNION SELECT SuppNo FROM parts UNION ALL SELECT y FROM TABLE (Twice(2)) AS t ORDER BY 1",
		"SELECT CASE WHEN No IN (1, 2) THEN CAST(No AS DOUBLE) ELSE -1.5 END FROM suppliers WHERE No BETWEEN 1 AND 2 AND Name IS NOT NULL",
		"SELECT d.c FROM (SELECT COUNT(*) AS c FROM parts) AS d, TABLE (Twice(d.c)) AS f",
		"SELECT f.y FROM TABLE (Twice(g.n)) AS f, TABLE (Nums()) AS g",
		"SELECT Name, COUNT(*) FROM suppliers",
		"SELECT SUM(COUNT(*)) FROM suppliers",
		"SELECT * FROM suppliers GROUP BY Name",
		"SELECT No FROM suppliers s, suppliers t",
		"SELECT 1 WHERE 1 = 2",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			return
		}
		for _, opts := range lateralOptions {
			_, _ = CompileSelectOpts(cat, sel, params, opts)
		}
	})
}

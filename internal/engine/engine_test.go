package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

func newTestSession(t *testing.T) *Session {
	t.Helper()
	eng := New()
	s := eng.NewSession()
	if _, err := s.ExecScriptContext(context.Background(), `
		CREATE TABLE suppliers (No INT PRIMARY KEY, Name VARCHAR(30), Rating INT);
		CREATE TABLE parts (PartNo INT, SuppNo INT, PartName VARCHAR(30), Price DOUBLE);
		INSERT INTO suppliers VALUES (1, 'ACME', 5), (2, 'Globex', 3), (3, 'Initech', 4);
		INSERT INTO parts VALUES
			(10, 1, 'bolt', 0.10), (11, 1, 'nut', 0.05),
			(12, 2, 'washer', 0.02), (13, 3, 'pin', 0.20),
			(14, 2, 'bolt', 0.12);
	`); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return s
}

func queryRows(t *testing.T, s *Session, sql string) *types.Table {
	t.Helper()
	tab, err := s.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return tab
}

func TestSelectBasics(t *testing.T) {
	s := newTestSession(t)
	tab := queryRows(t, s, "SELECT Name FROM suppliers WHERE Rating > 3 ORDER BY Name")
	if tab.Len() != 2 || tab.Rows[0][0].Str() != "ACME" || tab.Rows[1][0].Str() != "Initech" {
		t.Errorf("result:\n%s", tab)
	}
	if tab.Schema[0].Name != "Name" {
		t.Errorf("schema = %v", tab.Schema)
	}
}

func TestSelectNoFrom(t *testing.T) {
	s := newTestSession(t)
	tab := queryRows(t, s, "SELECT 1 + 2 AS three, 'x' || 'y' AS xy, CAST(5 AS DOUBLE) AS d")
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 3 || tab.Rows[0][1].Str() != "xy" || tab.Rows[0][2].Float() != 5 {
		t.Errorf("result:\n%s", tab)
	}
}

func TestJoinAndPredicatePlacement(t *testing.T) {
	s := newTestSession(t)
	sql := `SELECT s.Name, p.PartName FROM suppliers s, parts p
	        WHERE s.No = p.SuppNo AND p.Price < 0.1 ORDER BY p.PartNo`
	tab := queryRows(t, s, sql)
	if tab.Len() != 2 {
		t.Fatalf("rows:\n%s", tab)
	}
	if tab.Rows[0][0].Str() != "ACME" || tab.Rows[0][1].Str() != "nut" {
		t.Errorf("first row: %v", tab.Rows[0])
	}
	if tab.Rows[1][0].Str() != "Globex" || tab.Rows[1][1].Str() != "washer" {
		t.Errorf("second row: %v", tab.Rows[1])
	}
}

func TestExplicitJoins(t *testing.T) {
	s := newTestSession(t)
	tab := queryRows(t, s, `SELECT s.Name, p.PartName FROM suppliers s
		JOIN parts p ON s.No = p.SuppNo AND p.PartName = 'pin' ORDER BY 1`)
	if tab.Len() != 1 || tab.Rows[0][0].Str() != "Initech" {
		t.Errorf("inner join:\n%s", tab)
	}
	// LEFT JOIN pads unmatched suppliers with NULLs.
	tab = queryRows(t, s, `SELECT s.Name, p.PartName FROM suppliers s
		LEFT JOIN parts p ON s.No = p.SuppNo AND p.Price > 0.15 ORDER BY s.No, p.PartNo`)
	if tab.Len() != 3 {
		t.Fatalf("left join rows:\n%s", tab)
	}
	if !tab.Rows[0][1].IsNull() || !tab.Rows[1][1].IsNull() || tab.Rows[2][1].Str() != "pin" {
		t.Errorf("left join padding:\n%s", tab)
	}
	tab = queryRows(t, s, "SELECT COUNT(*) FROM suppliers CROSS JOIN parts")
	if tab.Rows[0][0].Int() != 15 {
		t.Errorf("cross join count = %v", tab.Rows[0][0])
	}
}

func TestHashJoinChosenForEquiJoin(t *testing.T) {
	s := newTestSession(t)
	res, err := s.ExecContext(context.Background(), "EXPLAIN SELECT s.Name FROM suppliers s, parts p WHERE s.No = p.SuppNo")
	if err != nil {
		t.Fatal(err)
	}
	planText := res.Table.String()
	if !strings.Contains(planText, "HashJoin") {
		t.Errorf("expected HashJoin in plan:\n%s", planText)
	}
}

func TestAggregation(t *testing.T) {
	s := newTestSession(t)
	tab := queryRows(t, s, `SELECT s.Name, COUNT(*) AS parts, AVG(p.Price) AS avgp, MIN(p.PartName) AS first
		FROM suppliers s, parts p WHERE s.No = p.SuppNo
		GROUP BY s.Name HAVING COUNT(*) >= 2 ORDER BY s.Name`)
	if tab.Len() != 2 {
		t.Fatalf("groups:\n%s", tab)
	}
	if tab.Rows[0][0].Str() != "ACME" || tab.Rows[0][1].Int() != 2 {
		t.Errorf("ACME row: %v", tab.Rows[0])
	}
	if got := tab.Rows[0][2].Float(); got < 0.074 || got > 0.076 {
		t.Errorf("avg price = %v", got)
	}
	if tab.Rows[1][0].Str() != "Globex" || tab.Rows[1][3].Str() != "bolt" {
		t.Errorf("Globex row: %v", tab.Rows[1])
	}
}

func TestScalarAggregatesAndDistinct(t *testing.T) {
	s := newTestSession(t)
	tab := queryRows(t, s, "SELECT COUNT(*), COUNT(DISTINCT PartName), SUM(Price), MAX(Price) FROM parts")
	r := tab.Rows[0]
	if r[0].Int() != 5 || r[1].Int() != 4 {
		t.Errorf("counts: %v", r)
	}
	if got := r[2].Float(); got < 0.48 || got > 0.50 {
		t.Errorf("sum = %v", got)
	}
	tab = queryRows(t, s, "SELECT COUNT(*) FROM parts WHERE Price > 100")
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 0 {
		t.Errorf("empty-input scalar aggregate:\n%s", tab)
	}
	tab = queryRows(t, s, "SELECT DISTINCT PartName FROM parts ORDER BY PartName")
	if tab.Len() != 4 || tab.Rows[0][0].Str() != "bolt" {
		t.Errorf("distinct:\n%s", tab)
	}
}

func TestOrderByVariants(t *testing.T) {
	s := newTestSession(t)
	// By position.
	tab := queryRows(t, s, "SELECT Name, Rating FROM suppliers ORDER BY 2 DESC")
	if tab.Rows[0][0].Str() != "ACME" {
		t.Errorf("order by position:\n%s", tab)
	}
	// By expression not in the select list (hidden sort column trimmed).
	tab = queryRows(t, s, "SELECT Name FROM suppliers ORDER BY Rating * -1")
	if len(tab.Schema) != 1 || tab.Rows[0][0].Str() != "ACME" {
		t.Errorf("hidden sort key:\n%s", tab)
	}
	// LIMIT/OFFSET.
	tab = queryRows(t, s, "SELECT PartNo FROM parts ORDER BY PartNo LIMIT 2 OFFSET 1")
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 11 || tab.Rows[1][0].Int() != 12 {
		t.Errorf("limit/offset:\n%s", tab)
	}
}

func TestStarSelections(t *testing.T) {
	s := newTestSession(t)
	tab := queryRows(t, s, "SELECT * FROM suppliers WHERE No = 1")
	if len(tab.Schema) != 3 || tab.Len() != 1 {
		t.Errorf("star:\n%s", tab)
	}
	tab = queryRows(t, s, "SELECT s.* FROM suppliers s, parts p WHERE s.No = p.SuppNo AND p.PartNo = 13")
	if len(tab.Schema) != 3 || tab.Rows[0][1].Str() != "Initech" {
		t.Errorf("qualified star:\n%s", tab)
	}
}

func TestDerivedTable(t *testing.T) {
	s := newTestSession(t)
	tab := queryRows(t, s, `SELECT d.n FROM (SELECT Name AS n, Rating AS r FROM suppliers) AS d WHERE d.r >= 4 ORDER BY d.n`)
	if tab.Len() != 2 || tab.Rows[0][0].Str() != "ACME" {
		t.Errorf("derived table:\n%s", tab)
	}
}

func TestDML(t *testing.T) {
	s := newTestSession(t)
	res := s.MustExecContext(context.Background(), "UPDATE suppliers SET Rating = Rating + 1 WHERE Name = 'Globex'")
	if res.RowsAffected != 1 {
		t.Errorf("update affected %d", res.RowsAffected)
	}
	tab := queryRows(t, s, "SELECT Rating FROM suppliers WHERE Name = 'Globex'")
	if tab.Rows[0][0].Int() != 4 {
		t.Errorf("rating after update = %v", tab.Rows[0][0])
	}
	res = s.MustExecContext(context.Background(), "DELETE FROM parts WHERE Price < 0.06")
	if res.RowsAffected != 2 {
		t.Errorf("delete affected %d", res.RowsAffected)
	}
	res = s.MustExecContext(context.Background(), "INSERT INTO parts (PartNo, PartName) VALUES (99, 'gasket')")
	if res.RowsAffected != 1 {
		t.Errorf("insert affected %d", res.RowsAffected)
	}
	tab = queryRows(t, s, "SELECT SuppNo FROM parts WHERE PartNo = 99")
	if !tab.Rows[0][0].IsNull() {
		t.Errorf("missing column should be NULL, got %v", tab.Rows[0][0])
	}
	// INSERT ... SELECT.
	s.MustExecContext(context.Background(), "CREATE TABLE parts2 (PartNo INT, SuppNo INT, PartName VARCHAR(30), Price DOUBLE)")
	res = s.MustExecContext(context.Background(), "INSERT INTO parts2 SELECT * FROM parts")
	if res.RowsAffected != 4 {
		t.Errorf("insert-select affected %d", res.RowsAffected)
	}
}

func TestSQLUDTFLateralChain(t *testing.T) {
	s := newTestSession(t)
	eng := s.Engine()
	// Register two external functions and compose them through a SQL
	// I-UDTF with a lateral dependency, mirroring the paper's GetSuppQual.
	if err := eng.RegisterExternal("test.GetSupplierNo", func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		tab := types.NewTable(types.Schema{{Name: "SupplierNo", Type: types.Integer}})
		if args[0].Str() == "ACME" {
			tab.MustAppend(types.Row{types.NewInt(1)})
		}
		return tab, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterExternal("test.GetQuality", func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		tab := types.NewTable(types.Schema{{Name: "Qual", Type: types.Integer}})
		tab.MustAppend(types.Row{types.NewInt(40 + args[0].Int())})
		return tab, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.MustExecContext(context.Background(), "CREATE FUNCTION GetSupplierNo (SupplierName VARCHAR) RETURNS TABLE (SupplierNo INT) LANGUAGE EXTERNAL NAME 'test.GetSupplierNo'")
	s.MustExecContext(context.Background(), "CREATE FUNCTION GetQuality (SupplierNo INT) RETURNS TABLE (Qual INT) LANGUAGE EXTERNAL NAME 'test.GetQuality'")
	s.MustExecContext(context.Background(), `CREATE FUNCTION GetSuppQual (SupplierName VARCHAR)
		RETURNS TABLE (Qual INT) LANGUAGE SQL RETURN
		SELECT GQ.Qual
		FROM TABLE (GetSupplierNo(GetSuppQual.SupplierName)) AS GSN,
		     TABLE (GetQuality(GSN.SupplierNo)) AS GQ`)

	tab := queryRows(t, s, "SELECT BSC.Qual FROM TABLE (GetSuppQual('ACME')) AS BSC")
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 41 {
		t.Errorf("lateral UDTF chain:\n%s", tab)
	}
	// Unknown supplier: the first function returns no rows, so the chain
	// yields none.
	tab = queryRows(t, s, "SELECT BSC.Qual FROM TABLE (GetSuppQual('nobody')) AS BSC")
	if tab.Len() != 0 {
		t.Errorf("expected empty result:\n%s", tab)
	}
}

func TestCreateFunctionValidation(t *testing.T) {
	s := newTestSession(t)
	// Body referencing an unknown function must fail at creation.
	if _, err := s.ExecContext(context.Background(), `CREATE FUNCTION broken (x INT) RETURNS TABLE (y INT)
		LANGUAGE SQL RETURN SELECT z.A FROM TABLE (NoSuchFn(broken.x)) AS z`); err == nil {
		t.Error("invalid body accepted")
	}
	if _, err := s.ExecContext(context.Background(), "CREATE FUNCTION f (x INT) RETURNS TABLE (y INT) LANGUAGE EXTERNAL NAME 'unregistered'"); err == nil {
		t.Error("unregistered external accepted")
	}
	// Duplicate registration.
	s.MustExecContext(context.Background(), "CREATE FUNCTION ok (x INT) RETURNS TABLE (y INT) LANGUAGE SQL RETURN SELECT 1")
	if _, err := s.ExecContext(context.Background(), "CREATE FUNCTION ok (x INT) RETURNS TABLE (y INT) LANGUAGE SQL RETURN SELECT 1"); err == nil {
		t.Error("duplicate function accepted")
	}
	s.MustExecContext(context.Background(), "DROP FUNCTION ok")
	if _, err := s.ExecContext(context.Background(), "DROP FUNCTION ok"); err == nil {
		t.Error("double drop accepted")
	}
}

// fakeServer is an in-process foreign server backed by a second engine.
type fakeServer struct {
	name string
	eng  *Engine
}

func (f *fakeServer) Name() string { return f.name }

func (f *fakeServer) TableSchemaContext(_ context.Context, remote string) (types.Schema, error) {
	tab, err := f.eng.Catalog().Table(remote)
	if err != nil {
		return nil, err
	}
	return tab.Schema(), nil
}

func (f *fakeServer) QueryContext(ctx context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, error) {
	return f.eng.RunSelectContext(ctx, sel, nil, task)
}

func TestFederatedNicknameAndPushdown(t *testing.T) {
	local := New()
	remoteEng := New()
	rs := remoteEng.NewSession()
	rs.MustExecContext(context.Background(), "CREATE TABLE stock (CompNo INT, Qty INT)")
	rs.MustExecContext(context.Background(), "INSERT INTO stock VALUES (1, 100), (2, 5), (3, 42)")

	if err := local.Catalog().AddServer(&fakeServer{name: "stocksrv", eng: remoteEng}); err != nil {
		t.Fatal(err)
	}
	s := local.NewSession()
	s.MustExecContext(context.Background(), "CREATE NICKNAME remote_stock FOR stocksrv.stock")

	tab := queryRows(t, s, "SELECT CompNo FROM remote_stock WHERE Qty > 10 ORDER BY CompNo")
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 1 || tab.Rows[1][0].Int() != 3 {
		t.Errorf("federated query:\n%s", tab)
	}
	// The predicate must be pushed into the remote query.
	res := s.MustExecContext(context.Background(), "EXPLAIN SELECT CompNo FROM remote_stock WHERE Qty > 10")
	planText := res.Table.String()
	if !strings.Contains(planText, "RemoteScan") || !strings.Contains(planText, "Qty > 10") {
		t.Errorf("pushdown missing from plan:\n%s", planText)
	}
	if strings.Contains(planText, "Filter") {
		t.Errorf("pushed predicate still filtered locally:\n%s", planText)
	}
	// Join a nickname with a local table.
	s.MustExecContext(context.Background(), "CREATE TABLE names (CompNo INT, Name VARCHAR(20))")
	s.MustExecContext(context.Background(), "INSERT INTO names VALUES (1, 'bolt'), (3, 'pin')")
	tab = queryRows(t, s, `SELECT n.Name, r.Qty FROM names n, remote_stock r
		WHERE n.CompNo = r.CompNo ORDER BY n.Name`)
	if tab.Len() != 2 || tab.Rows[0][0].Str() != "bolt" || tab.Rows[0][1].Int() != 100 {
		t.Errorf("federated join:\n%s", tab)
	}
}

func TestCreateServerViaWrapper(t *testing.T) {
	remoteEng := New()
	remoteEng.NewSession().MustExecContext(context.Background(), "CREATE TABLE t (a INT)")
	local := New()
	err := local.RegisterWrapperImpl("testwrap", func(serverName string, options map[string]string) (catalog.ForeignServer, error) {
		if options["target"] != "remote1" {
			return nil, fmt.Errorf("unknown target")
		}
		return &fakeServer{name: serverName, eng: remoteEng}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := local.NewSession()
	s.MustExecContext(context.Background(), "CREATE WRAPPER testwrap")
	s.MustExecContext(context.Background(), "CREATE SERVER srv1 WRAPPER testwrap OPTIONS (target 'remote1')")
	s.MustExecContext(context.Background(), "CREATE NICKNAME nt FOR srv1.t")
	if _, err := s.QueryContext(context.Background(), "SELECT * FROM nt"); err != nil {
		t.Errorf("query via wrapper-created server: %v", err)
	}
	if _, err := s.ExecContext(context.Background(), "CREATE SERVER bad WRAPPER testwrap OPTIONS (target 'nope')"); err == nil {
		t.Error("factory error not propagated")
	}
	if _, err := s.ExecContext(context.Background(), "CREATE WRAPPER unknownimpl"); err == nil {
		t.Error("unlinked wrapper accepted")
	}
}

func TestShowAndExplain(t *testing.T) {
	s := newTestSession(t)
	res := s.MustExecContext(context.Background(), "SHOW TABLES")
	if res.Table.Len() != 2 {
		t.Errorf("SHOW TABLES:\n%s", res.Table)
	}
	res = s.MustExecContext(context.Background(), "SHOW FUNCTIONS")
	if res.Table.Len() != 0 {
		t.Errorf("SHOW FUNCTIONS:\n%s", res.Table)
	}
	if _, err := s.ExecContext(context.Background(), "EXPLAIN DELETE FROM parts"); err == nil {
		t.Error("EXPLAIN DELETE accepted")
	}
	// suppliers.No is the primary key (hash index); parts has no index.
	for _, c := range []struct {
		sql      string
		want     string
		filtered bool // the equality stays a Filter above the scan
	}{
		{"SELECT * FROM suppliers WHERE No = 1", "IndexScan suppliers (No = 1)", false},
		{"SELECT * FROM suppliers WHERE 1 = No", "IndexScan suppliers (No = 1)", false},
		{"SELECT * FROM suppliers s WHERE s.No = 1 AND Rating > 2", "IndexScan suppliers (No = 1)", true},
		{"SELECT * FROM parts p, suppliers s WHERE s.No = 2 AND p.SuppNo = s.No", "IndexScan suppliers (No = 2)", false},
		{"SELECT * FROM parts WHERE PartNo = 10", "TableScan parts", true},      // no index
		{"SELECT * FROM suppliers WHERE No = '1'", "TableScan suppliers", true}, // kind mismatch: must keep raising
		{"SELECT * FROM suppliers WHERE No = 1.0", "TableScan suppliers", true}, // INT column, DOUBLE literal
		{"SELECT * FROM suppliers WHERE No = NULL", "TableScan suppliers", true},
		{"SELECT * FROM suppliers WHERE No = 0 + 1", "TableScan suppliers", true},
		{"SELECT * FROM suppliers WHERE Name = 'ACME'", "TableScan suppliers", true},
		{"SELECT * FROM parts p LEFT JOIN suppliers s ON p.SuppNo = s.No WHERE s.No = 1", "TableScan suppliers", true},
	} {
		plan := s.MustExecContext(context.Background(), "EXPLAIN "+c.sql).Table.String()
		if !strings.Contains(plan, c.want) || strings.Contains(plan, "Filter") != c.filtered {
			t.Errorf("%s: want %q, filter=%v; plan:\n%s", c.sql, c.want, c.filtered, plan)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	s := newTestSession(t)
	for _, bad := range []string{
		"SELECT nope FROM suppliers",
		"SELECT * FROM nope",
		"SELECT x FROM TABLE (NoFn(1)) AS z",
		"INSERT INTO nope VALUES (1)",
		"INSERT INTO suppliers (Nope) VALUES (1)",
		"INSERT INTO suppliers VALUES (1)", // arity mismatch
		"UPDATE nope SET a = 1",
		"UPDATE suppliers SET Nope = 1",
		"DELETE FROM nope",
		"DROP TABLE nope",
		"CREATE INDEX i ON nope (x)",
		"CREATE INDEX i ON suppliers (Nope)",
		"CREATE TABLE suppliers (No INT)", // duplicate
		"CREATE TABLE two_pk (a INT PRIMARY KEY, b INT PRIMARY KEY)",
		"CREATE NICKNAME n FOR nosrv.t",
		"SELECT a.PartNo FROM parts a, parts b WHERE PartName = 'bolt'", // ambiguous PartName
		"SELECT 1 FROM parts a, suppliers a",                            // duplicate correlation
	} {
		if _, err := s.ExecContext(context.Background(), bad); err == nil {
			t.Errorf("Exec(%q) should fail", bad)
		}
	}
}

func TestExecScriptStopsAtError(t *testing.T) {
	s := New().NewSession()
	results, err := s.ExecScriptContext(context.Background(), "CREATE TABLE a (x INT); INSERT INTO nope VALUES (1); CREATE TABLE b (y INT)")
	if err == nil {
		t.Fatal("script error not reported")
	}
	if len(results) != 1 {
		t.Errorf("results before failure = %d", len(results))
	}
	if _, err := s.eng.Catalog().Table("b"); err == nil {
		t.Error("statement after failure executed")
	}
}

func TestMustExecPanics(t *testing.T) {
	s := New().NewSession()
	defer func() {
		if recover() == nil {
			t.Error("MustExec should panic on error")
		}
	}()
	s.MustExecContext(context.Background(), "DROP TABLE nope")
}

func TestSessionTaskAccounting(t *testing.T) {
	s := newTestSession(t)
	task := simlat.NewVirtualTask()
	s.SetTask(task)
	if s.Task() != task {
		t.Fatal("task not attached")
	}
	eng := s.Engine()
	if err := eng.RegisterExternal("test.slow", func(rt catalog.QueryRunner, tk *simlat.Task, args []types.Value) (*types.Table, error) {
		tk.Spend(10 * simlat.PaperMS)
		tab := types.NewTable(types.Schema{{Name: "X", Type: types.Integer}})
		tab.MustAppend(types.Row{types.NewInt(1)})
		return tab, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.MustExecContext(context.Background(), "CREATE FUNCTION Slow () RETURNS TABLE (X INT) LANGUAGE EXTERNAL NAME 'test.slow'")
	queryRows(t, s, "SELECT * FROM TABLE (Slow()) AS sl")
	if task.Elapsed() != 10*simlat.PaperMS {
		t.Errorf("task elapsed = %v", task.Elapsed())
	}
}

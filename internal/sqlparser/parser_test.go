package sqlparser

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedwf/internal/types"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

// roundTrip asserts that rendering a parsed statement and reparsing it
// yields an identical AST.
func roundTrip(t *testing.T, sql string) Statement {
	t.Helper()
	s1 := mustParse(t, sql)
	s2, err := Parse(s1.String())
	if err != nil {
		t.Fatalf("reparse of %q -> %q failed: %v", sql, s1.String(), err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("round trip changed AST:\n in: %q\nout: %q", sql, s1.String())
	}
	return s1
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s', 1.5e3 FROM t -- comment\n/* block */ WHERE x <> 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "1.5e3", "FROM", "t", "WHERE", "x", "<>", "2", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[3] != TokString || kinds[5] != TokNumber || kinds[10] != TokOp {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT 'unterminated",
		`SELECT "unterminated`,
		"SELECT 1e",
		"SELECT /* unterminated",
		"SELECT a ? b",
	} {
		if _, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q) should fail", bad)
		}
	}
}

// TestLexUTF8: identifiers are read rune by rune, so a UTF-8 letter of
// more than one byte stays inside its identifier, and a byte that is not
// UTF-8 is an error at its position rather than a Latin-1 letter.
func TestLexUTF8(t *testing.T) {
	toks, err := Lex("SELECT Größe FROM Maße")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 5 || toks[1].Kind != TokIdent || toks[1].Text != "Größe" || toks[3].Text != "Maße" || toks[3].Col != 19 {
		t.Errorf("tokens = %+v", toks)
	}
	roundTrip(t, "SELECT Größe, ÄÖÜ_1 FROM Maße WHERE Größe > 3")

	for _, bad := range []struct{ sql, at string }{
		{"SET \xdf 0", "byte 0xdf at line 1 col 5"},
		{"SELECT a\n  FROM t\xff", "byte 0xff at line 2 col 9"},
		{"SELECT 'caf\xe9'", "byte 0xe9 at line 1 col 12"},
		{"SELECT Größe\nFROM Maße WHERE x = '\xc3'", "byte 0xc3 at line 2 col 22"},
	} {
		_, err := Parse(bad.sql)
		if err == nil || !strings.Contains(err.Error(), "invalid UTF-8 "+bad.at) {
			t.Errorf("Parse(%q) = %v, want invalid UTF-8 %s", bad.sql, err, bad.at)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("SELECT\n  x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("position of x = line %d col %d", toks[1].Line, toks[1].Col)
	}
}

func TestParsePaperBuySuppComp(t *testing.T) {
	// The exact statement from Sect. 2 of the paper.
	sql := `SELECT DP.Answer
	 FROM TABLE (GetQuality(SupplierNo)) AS GQ,
	      TABLE (GetReliability(SupplierNo)) AS GR,
	      TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG,
	      TABLE (GetCompNo(CompName)) AS GCN,
	      TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP`
	stmt := roundTrip(t, sql)
	sel := stmt.(*Select)
	if len(sel.From) != 5 {
		t.Fatalf("FROM items = %d", len(sel.From))
	}
	tf, ok := sel.From[2].(*TableFuncRef)
	if !ok || tf.Name != "GetGrade" || tf.Alias != "GG" || len(tf.Args) != 2 {
		t.Fatalf("third item = %#v", sel.From[2])
	}
	arg0 := tf.Args[0].(*ColumnRef)
	if arg0.Qualifier != "GQ" || arg0.Name != "Qual" {
		t.Errorf("lateral arg = %v", arg0)
	}
	if sel.From[2].Corr() != "GG" {
		t.Errorf("Corr = %q", sel.From[2].Corr())
	}
}

func TestParsePaperCreateFunction(t *testing.T) {
	// The exact I-UDTF definition from Sect. 2.
	sql := `CREATE FUNCTION BuySuppComp (SupplierNo INT, CompName VARCHAR)
	 RETURNS TABLE (Decision VARCHAR) LANGUAGE SQL RETURN
	 SELECT DP.Answer
	 FROM TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ,
	      TABLE (GetReliability(BuySuppComp.SupplierNo)) AS GR,
	      TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG,
	      TABLE (GetCompNo(BuySuppComp.CompName)) AS GCN,
	      TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP`
	stmt := roundTrip(t, sql)
	cf := stmt.(*CreateFunction)
	if cf.Name != "BuySuppComp" || cf.Language != "SQL" {
		t.Fatalf("cf = %+v", cf)
	}
	if len(cf.Params) != 2 || cf.Params[0].Type != types.Integer || cf.Params[1].Type != types.VarChar {
		t.Errorf("params = %v", cf.Params)
	}
	if len(cf.Returns) != 1 || cf.Returns[0].Name != "Decision" {
		t.Errorf("returns = %v", cf.Returns)
	}
	// Parameter references parse as qualified column refs.
	arg := cf.Body.From[0].(*TableFuncRef).Args[0].(*ColumnRef)
	if arg.Qualifier != "BuySuppComp" || arg.Name != "SupplierNo" {
		t.Errorf("param ref = %v", arg)
	}
}

func TestParsePaperGetNumberSupp1234(t *testing.T) {
	sql := `CREATE FUNCTION GetNumberSupp1234 (CompNo INT)
	 RETURNS TABLE (Number BIGINT) LANGUAGE SQL RETURN
	 SELECT BIGINT(GN.Number)
	 FROM TABLE (GetNumber(1234, GetNumberSupp1234.CompNo)) AS GN`
	stmt := roundTrip(t, sql)
	cf := stmt.(*CreateFunction)
	call := cf.Body.Items[0].Expr.(*FuncCall)
	if call.Name != "BIGINT" || len(call.Args) != 1 {
		t.Errorf("cast call = %v", call)
	}
	lit := cf.Body.From[0].(*TableFuncRef).Args[0].(*Literal)
	if lit.Val.Int() != 1234 {
		t.Errorf("constant arg = %v", lit.Val)
	}
}

func TestParsePaperIndependentCase(t *testing.T) {
	sql := `CREATE FUNCTION GetSubCompDiscounts (CompNo INT, Discount INT)
	 RETURNS TABLE (SubCompNo INT, SupplierNo INT)
	 LANGUAGE SQL RETURN
	 SELECT GSCD.SubCompNo, GCS4D.SupplierNo
	 FROM TABLE (GetSubCompNo(GetSubCompDiscounts.CompNo)) AS GSCD,
	      TABLE (GetCompSupp4Discount(GetSubCompDiscounts.Discount)) AS GCS4D
	 WHERE GSCD.SubCompNo = GCS4D.CompNo`
	stmt := roundTrip(t, sql)
	cf := stmt.(*CreateFunction)
	be := cf.Body.Where.(*BinaryExpr)
	if be.Op != "=" {
		t.Errorf("join predicate = %v", be)
	}
}

func TestParseSelectFull(t *testing.T) {
	sql := `SELECT DISTINCT s.Name AS n, COUNT(*) AS c
	 FROM suppliers AS s JOIN parts p ON s.No = p.SuppNo
	 WHERE s.Rating >= 3 AND p.Price BETWEEN 1 AND 10 OR p.Name LIKE 'bol%'
	 GROUP BY s.Name HAVING COUNT(*) > 2
	 ORDER BY c DESC, n LIMIT 10 OFFSET 5`
	sel := roundTrip(t, sql).(*Select)
	if !sel.Distinct || sel.Limit != 10 || sel.Offset != 5 {
		t.Errorf("flags: %+v", sel)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %v", sel.OrderBy)
	}
	if _, ok := sel.From[0].(*JoinRef); !ok {
		t.Errorf("from = %T", sel.From[0])
	}
}

func TestParseJoins(t *testing.T) {
	sel := roundTrip(t, "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x CROSS JOIN c").(*Select)
	outer := sel.From[0].(*JoinRef)
	if outer.Type != CrossJoin {
		t.Fatalf("outer join type = %v", outer.Type)
	}
	inner := outer.Left.(*JoinRef)
	if inner.Type != LeftJoin || inner.On == nil {
		t.Errorf("inner = %+v", inner)
	}
	if outer.Corr() != "" {
		t.Errorf("join Corr = %q", outer.Corr())
	}
}

func TestParseUnion(t *testing.T) {
	sel := roundTrip(t, "SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT c FROM v ORDER BY 1 LIMIT 5").(*Select)
	if len(sel.Unions) != 2 {
		t.Fatalf("unions = %d", len(sel.Unions))
	}
	if !sel.Unions[0].All || sel.Unions[1].All {
		t.Errorf("ALL flags = %v, %v", sel.Unions[0].All, sel.Unions[1].All)
	}
	// ORDER BY and LIMIT belong to the chain, not the last member.
	if sel.Limit != 5 || len(sel.OrderBy) != 1 {
		t.Errorf("chain order/limit: %+v", sel)
	}
	if sel.Unions[1].Query.Limit != -1 || len(sel.Unions[1].Query.OrderBy) != 0 {
		t.Errorf("member inherited order/limit: %+v", sel.Unions[1].Query)
	}
	// Union inside a derived table.
	roundTrip(t, "SELECT * FROM (SELECT a FROM t UNION SELECT b FROM u) AS d")
	if _, err := Parse("SELECT a FROM t UNION"); err == nil {
		t.Error("dangling UNION accepted")
	}
}

func TestParseDerivedTable(t *testing.T) {
	sel := roundTrip(t, "SELECT d.x FROM (SELECT a AS x FROM t) AS d").(*Select)
	sub := sel.From[0].(*SubqueryRef)
	if sub.Alias != "d" || len(sub.Query.Items) != 1 {
		t.Errorf("subquery = %+v", sub)
	}
}

func TestParseExpressions(t *testing.T) {
	for _, sql := range []string{
		"SELECT 1 + 2 * 3 - 4 / 5 % 6",
		"SELECT -x, NOT a, b IS NULL, c IS NOT NULL",
		"SELECT a IN (1, 2, 3), b NOT IN ('x'), c NOT BETWEEN 1 AND 2",
		"SELECT x NOT LIKE 'a_%', y || 'suffix'",
		"SELECT CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END",
		"SELECT CAST(x AS BIGINT), CAST('5' AS VARCHAR(2))",
		"SELECT COUNT(*), COUNT(DISTINCT x), SUM(a + b), TRUE, FALSE, NULL",
		"SELECT ((a OR b) AND NOT (c OR d))",
		"SELECT 1.5, .5, 2e10, 'it''s'",
	} {
		roundTrip(t, sql)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	sel := mustParse(t, "SELECT 1 + 2 * 3").(*Select)
	add := sel.Items[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != "*" {
		t.Errorf("right op = %s", mul.Op)
	}
	sel = mustParse(t, "SELECT a OR b AND c").(*Select)
	or := sel.Items[0].Expr.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top boolean op = %s", or.Op)
	}
	if and := or.R.(*BinaryExpr); and.Op != "AND" {
		t.Errorf("right boolean op = %s", and.Op)
	}
	// != normalises to <>.
	sel = mustParse(t, "SELECT a != b").(*Select)
	if ne := sel.Items[0].Expr.(*BinaryExpr); ne.Op != "<>" {
		t.Errorf("!= normalisation = %s", ne.Op)
	}
}

func TestParseDDL(t *testing.T) {
	ct := roundTrip(t, "CREATE TABLE suppliers (No INT PRIMARY KEY, Name VARCHAR(30), Rating DOUBLE)").(*CreateTable)
	if len(ct.Columns) != 3 || !ct.Columns[0].PrimaryKey || ct.Columns[1].Type != types.VarCharN(30) {
		t.Errorf("create table = %+v", ct)
	}
	roundTrip(t, "DROP TABLE suppliers")
	ci := roundTrip(t, "CREATE INDEX idx ON suppliers (Name)").(*CreateIndex)
	if ci.Table != "suppliers" || ci.Column != "Name" {
		t.Errorf("create index = %+v", ci)
	}
	roundTrip(t, "DROP FUNCTION f")
	cf := roundTrip(t, "CREATE FUNCTION f (x INT) RETURNS TABLE (y INT) LANGUAGE EXTERNAL NAME 'appsys.GetQuality'").(*CreateFunction)
	if cf.Language != "EXTERNAL" || cf.ExternalName != "appsys.GetQuality" {
		t.Errorf("external function = %+v", cf)
	}
}

func TestParseSQLMED(t *testing.T) {
	cw := roundTrip(t, "CREATE WRAPPER wfwrapper OPTIONS (endpoint 'inproc', mode 'sync')").(*CreateWrapper)
	if cw.Options["endpoint"] != "inproc" {
		t.Errorf("wrapper opts = %v", cw.Options)
	}
	cs := roundTrip(t, "CREATE SERVER wfserver WRAPPER wfwrapper OPTIONS (host 'localhost')").(*CreateServer)
	if cs.Wrapper != "wfwrapper" {
		t.Errorf("server = %+v", cs)
	}
	cn := roundTrip(t, "CREATE NICKNAME remote_parts FOR partsrv.parts").(*CreateNickname)
	if cn.Server != "partsrv" || cn.Remote != "parts" {
		t.Errorf("nickname = %+v", cn)
	}
}

func TestParseDML(t *testing.T) {
	ins := roundTrip(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	insSel := roundTrip(t, "INSERT INTO t SELECT a, b FROM s WHERE a > 1").(*Insert)
	if insSel.Query == nil {
		t.Error("insert-select lost query")
	}
	up := roundTrip(t, "UPDATE t SET a = a + 1, b = 'z' WHERE a < 10").(*Update)
	if len(up.Assignments) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
	del := roundTrip(t, "DELETE FROM t WHERE a = 1").(*Delete)
	if del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
	roundTrip(t, "DELETE FROM t")
}

func TestParseExplainAndShow(t *testing.T) {
	ex := roundTrip(t, "EXPLAIN SELECT * FROM t").(*Explain)
	if _, ok := ex.Stmt.(*Select); !ok {
		t.Errorf("explain wraps %T", ex.Stmt)
	}
	sh := roundTrip(t, "SHOW TABLES").(*Show)
	if sh.What != "TABLES" {
		t.Errorf("show = %+v", sh)
	}
	roundTrip(t, "SHOW FUNCTIONS")
	roundTrip(t, "SHOW SERVERS")
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);; SELECT * FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("script stmts = %d", len(stmts))
	}
	if _, err := ParseScript("SELECT 1 SELECT 2"); err == nil {
		t.Error("missing semicolon accepted")
	}
	empty, err := ParseScript("  ;; ")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty script = %v, %v", empty, err)
	}
}

func TestParseSelectHelper(t *testing.T) {
	if _, err := ParseSelect("SELECT 1"); err != nil {
		t.Error(err)
	}
	if _, err := ParseSelect("DROP TABLE t"); err == nil {
		t.Error("ParseSelect accepted DDL")
	}
	if _, err := ParseSelect("SELEC 1"); err == nil {
		t.Error("ParseSelect accepted garbage")
	}
}

// TestParseErrors pins each error's full text, line and column. Between
// them the cases reach every error format of the parser and every name
// expectIdent asks for.
func TestParseErrors(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"", "line 1 col 1: expected a statement, got end of input"},
		{"FROB x", "line 1 col 1: expected a statement, got FROB"},
		{"SELECT", "line 1 col 7: unexpected end of input in expression"},
		{"SELECT * FROM", "line 1 col 14: expected table name, got end of input"},
		{"SELECT * FROM TABLE (f(1))", "line 1 col 27: expected correlation name (mandatory after TABLE(...)), got end of input"},
		{"SELECT * FROM (SELECT 1)", "line 1 col 25: expected correlation name for derived table, got end of input"},
		{"SELECT * FROM t WHERE", "line 1 col 22: unexpected end of input in expression"},
		{"SELECT a FROM t ORDER", "line 1 col 22: expected BY, got end of input"},
		{"SELECT a FROM t GROUP x", "line 1 col 23: expected BY, got x"},
		{"SELECT a FROM t LIMIT x", "line 1 col 23: expected integer after LIMIT, got x"},
		{"SELECT CASE END", "line 1 col 13: CASE requires at least one WHEN arm"},
		{"SELECT CAST(a AS )", "line 1 col 18: expected a type name, got )"},
		{"SELECT CAST(a AS FROB)", `line 1 col 22: types: unknown type "FROB"`},
		{"CREATE TABLE t (a)", "line 1 col 18: expected a type name, got )"},
		{"CREATE TABLE t (a INT", `line 1 col 22: expected ")", got end of input`},
		{"CREATE FUNCTION f () RETURNS TABLE (x INT) LANGUAGE COBOL RETURN SELECT 1", "line 1 col 53: expected SQL or EXTERNAL after LANGUAGE, got COBOL"},
		{"CREATE FUNCTION f () RETURNS TABLE (x INT) LANGUAGE EXTERNAL NAME f", "line 1 col 67: expected string literal after EXTERNAL NAME, got f"},
		{"CREATE SERVER s", "line 1 col 16: expected WRAPPER, got end of input"},
		{"CREATE NICKNAME n FOR s", `line 1 col 24: expected ".", got end of input`},
		{"INSERT INTO t VALUES 1", `line 1 col 22: expected "(", got 1`},
		{"UPDATE t SET", "line 1 col 13: expected column name, got end of input"},
		{"DELETE t", "line 1 col 8: expected FROM, got t"},
		{"SHOW COLUMNS", "line 1 col 6: expected TABLES, FUNCTIONS, SERVERS or VIEWS after SHOW, got COLUMNS"},
		{"SELECT 1; junk", "line 1 col 11: unexpected junk after statement"},
		{"SELECT a FROM t JOIN u", "line 1 col 23: expected ON, got end of input"},
		{"SELECT x IN ()", "line 1 col 14: unexpected ) in expression"},
		{"CREATE WRAPPER w OPTIONS (k v)", "line 1 col 29: expected string value for option k, got v"},
		// The remaining error formats.
		{"CALL f(1)", "line 1 col 1: unsupported statement CALL"},
		{"CREATE USER u", "line 1 col 8: unsupported CREATE USER"},
		{"DROP INDEX i", "line 1 col 6: unsupported DROP INDEX"},
		{"SET 4", "line 1 col 5: expected an option name after SET, got 4"},
		{"SET PARALLELISM", "line 1 col 16: expected integer after SET PARALLELISM, got end of input"},
		{"SELECT a FROM t LIMIT 1.5", "line 1 col 23: LIMIT wants an integer, got 1.5"},
		{"SELECT a FROM t OFFSET 99999999999999999999", "line 1 col 24: OFFSET wants an integer, got 99999999999999999999"},
		{"SELECT * FROM (t) AS d", "line 1 col 16: expected SELECT in derived table, got t"},
		{"CREATE FUNCTION f () RETURNS TABLE (x INT) LANGUAGE EXTERNAL f", "line 1 col 62: expected NAME after LANGUAGE EXTERNAL, got f"},
		{"CREATE TABLE t (a VARCHAR(x))", "line 1 col 27: expected length in type VARCHAR, got x"},
		{"SELECT 99999999999999999999", `line 1 col 28: bad number "99999999999999999999"`},
		{"SELECT 1e999", `line 1 col 13: bad number "1e999"`},
		{"SELECT WHERE", "line 1 col 8: unexpected keyword WHERE in expression"},
		// The remaining names expectIdent asks for.
		{"SELECT a AS 1", "line 1 col 13: expected alias, got 1"},
		{"SELECT * FROM t AS 1", "line 1 col 20: expected correlation name, got 1"},
		{"SELECT * FROM TABLE (1)", "line 1 col 22: expected table function name, got 1"},
		{"CREATE INDEX 1 ON t (a)", "line 1 col 14: expected index name, got 1"},
		{"CREATE NICKNAME 1 FOR s.r", "line 1 col 17: expected nickname, got 1"},
		{"CREATE NICKNAME n FOR 1.r", "line 1 col 23: expected server name, got 1."},
		{"CREATE NICKNAME n FOR s.'r'", "line 1 col 25: expected remote table name, got 'r'"},
		{"CREATE WRAPPER 1", "line 1 col 16: expected wrapper name, got 1"},
		{"CREATE WRAPPER w OPTIONS (1 'x')", "line 1 col 27: expected option name, got 1"},
		{"CREATE FUNCTION f (1 INT) RETURNS TABLE (x INT) LANGUAGE SQL RETURN SELECT 1", "line 1 col 20: expected parameter name, got 1"},
		{"CREATE FUNCTION f () RETURNS TABLE (1 INT) LANGUAGE SQL RETURN SELECT 1", "line 1 col 37: expected result column name, got 1"},
		{"DROP FUNCTION 1", "line 1 col 15: expected function name, got 1"},
		{"CREATE VIEW AS SELECT 1", "line 1 col 13: expected view name, got AS"},
		// Joins, CASE, IS, BETWEEN and a position past the first line.
		{"SELECT a FROM t LEFT JOIN u", "line 1 col 28: expected ON, got end of input"},
		{"SELECT a FROM t CROSS u", "line 1 col 23: expected JOIN, got u"},
		{"SELECT a FROM t INNER u ON 1", "line 1 col 23: expected JOIN, got u"},
		{"SELECT CASE WHEN 1 2 END", "line 1 col 20: expected THEN, got 2"},
		{"SELECT CASE WHEN 1 THEN 2", "line 1 col 26: expected END, got end of input"},
		{"SELECT a IS 1", "line 1 col 13: expected NULL, got 1"},
		{"SELECT a BETWEEN 1 OR 2", "line 1 col 20: expected AND, got OR"},
		{"SELECT a FROM t UNION", "line 1 col 22: expected SELECT, got end of input"},
		{"CREATE TABLE t (a INT PRIMARY)", "line 1 col 30: expected KEY, got )"},
		{"EXPLAIN", "line 1 col 8: expected a statement, got end of input"},
		{"SELECT\n  a FROM\n\t(SELECT 1) AS", "line 3 col 15: expected correlation name for derived table, got end of input"},
	} {
		_, err := Parse(c.sql)
		if want := "sql: " + c.want; err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", c.sql, err, want)
		}
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT 1 SELECT 2", "sql: line 1 col 10: expected ';' between statements, got SELECT"},
		{"SELECT 1;; SELECT", "sql: line 1 col 18: unexpected end of input in expression"},
	} {
		if _, err := ParseScript(c.sql); err == nil || err.Error() != c.want {
			t.Errorf("ParseScript(%q) = %v, want %s", c.sql, err, c.want)
		}
	}
	for _, c := range []struct{ sql, want string }{
		{"DROP TABLE t", "sql: line 1 col 1: expected a SELECT statement, got DROP"},
		{"\n  EXPLAIN SELECT 1", "sql: line 2 col 3: expected a SELECT statement, got EXPLAIN"},
		{"SELEC 1", "sql: line 1 col 1: expected a statement, got SELEC"},
	} {
		if _, err := ParseSelect(c.sql); err == nil || err.Error() != c.want {
			t.Errorf("ParseSelect(%q) = %v, want %s", c.sql, err, c.want)
		}
	}
}

func TestIdentQuoting(t *testing.T) {
	// A quoted identifier that collides with a keyword must survive the
	// round trip via re-quoting.
	sel := roundTrip(t, `SELECT "select" FROM "table"`).(*Select)
	ref := sel.Items[0].Expr.(*ColumnRef)
	if ref.Name != "select" {
		t.Errorf("quoted ident = %q", ref.Name)
	}
	if !strings.Contains(sel.String(), `"select"`) {
		t.Errorf("rendering lost quoting: %s", sel.String())
	}
}

// Round-trip property over a corpus of generated-ish statements covering
// every AST node type.
func TestRoundTripCorpus(t *testing.T) {
	corpus := []string{
		"SELECT * FROM t",
		"SELECT t.* FROM t",
		"SELECT a, b AS c FROM t AS x WHERE a = 1",
		"SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL",
		"SELECT MOD(a, 2) FROM t WHERE a <> 3 AND b <= 4 AND c >= 5",
		"SELECT 'a' || 'b' FROM t LIMIT 1",
		"SELECT x FROM TABLE (F()) AS f0",
		"SELECT x FROM TABLE (F(1, 'two', a.b)) AS f1, u",
		"INSERT INTO t VALUES (NULL, TRUE, FALSE)",
		"UPDATE t SET a = CASE WHEN b THEN 1 ELSE 2 END",
		"CREATE TABLE t (a SMALLINT, b BIGINT, c DOUBLE, d BOOLEAN, e VARCHAR(9))",
		"SELECT COUNT(a), MIN(b), MAX(c), AVG(d), SUM(e) FROM t GROUP BY f",
	}
	for _, sql := range corpus {
		roundTrip(t, sql)
	}
}

func TestTokenString(t *testing.T) {
	toks, err := Lex("SELECT 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].String() != "SELECT" || toks[1].String() != "'x'" {
		t.Errorf("token strings: %v %v", toks[0], toks[1])
	}
	if toks[len(toks)-1].String() != "end of input" {
		t.Errorf("EOF string = %q", toks[len(toks)-1])
	}
}

func TestParseViewStatements(t *testing.T) {
	cv := roundTrip(t, "CREATE VIEW v AS SELECT a FROM t WHERE a > 1").(*CreateView)
	if cv.Name != "v" || cv.Query == nil {
		t.Errorf("create view = %+v", cv)
	}
	roundTrip(t, "DROP VIEW v")
	roundTrip(t, "SHOW VIEWS")
	for _, bad := range []string{"CREATE VIEW v SELECT 1", "CREATE VIEW AS SELECT 1", "DROP VIEW"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseSet(t *testing.T) {
	st := roundTrip(t, "SET PARALLELISM 4").(*Set)
	if st.Option != "PARALLELISM" || st.Value != 4 {
		t.Errorf("got %+v", st)
	}
	st = roundTrip(t, "set parallelism -1").(*Set)
	if st.Option != "PARALLELISM" || st.Value != -1 {
		t.Errorf("negative: got %+v", st)
	}
	if _, err := Parse("SET PARALLELISM"); err == nil {
		t.Error("missing value accepted")
	}
	if _, err := Parse("SET 4"); err == nil {
		t.Error("missing option name accepted")
	}
}

// fuzzSeeds are the statements the servers, consoles and experiments send:
// the console queries of fdbs/queries.go, the experiments' statements and
// I-UDTF definitions, DML, DDL and the planner's EXPLAIN golden statements.
func fuzzSeeds(t testing.TB) []string {
	t.Helper()
	seeds := []string{
		"SELECT Fingerprint, Calls, Rows, Errors, Total_MS, Mean_MS, P99_MS, Query FROM fed_stat_statements ORDER BY Total_MS DESC LIMIT 5",
		"SELECT Seq, Kind, Func, Instance, Node, Detail, RowIdx, Rows, Started_VT, Dur_MS, Err FROM fed_audit_events ORDER BY Seq DESC LIMIT 20",
		"SELECT MAX(Seq), COUNT(*) FROM fed_audit_events",
		"SELECT Node, Event, RowIdx, Rows, At_VT FROM fed_wf_activities WHERE Instance = 'wf-000006' ORDER BY At_VT",
		"SELECT Window, Statements, Errors, Slow, Availability_Burn, Latency_Burn FROM fed_slo",
		"SELECT Span, Parent, Depth, Name, Start_MS, Elapsed_MS, Attrs, Steps FROM fed_spans WHERE Trace = 'it''s' ORDER BY Span",
		"SELECT * FROM TABLE (BuySuppComp(4, 'washer')) AS R",
		"SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q",
		"SELECT c.Name, k.KompNr FROM comps c LEFT JOIN TABLE (GibKompNr(c.Name)) AS k ON 1 = 1",
		"SELECT d.SupplierNo, F.Qual, F.Relia FROM drv d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F WHERE d.SupplierNo >= 2",
		"SELECT l.K, COUNT(*), SUM(r.W) FROM l, r WHERE l.K = r.K AND l.V >= 3 GROUP BY l.K HAVING COUNT(*) > 1 ORDER BY 2 DESC",
		"SELECT No FROM suppliers UNION ALL SELECT SuppNo FROM parts ORDER BY 1 LIMIT 3 OFFSET 1",
		"SELECT CASE WHEN a IS NULL THEN -1.5 ELSE CAST(b AS VARCHAR(9)) END FROM t WHERE c NOT IN (1, 2) AND d NOT LIKE 'x%' AND e NOT BETWEEN 1 AND 2",
		"CREATE FUNCTION BuySuppComp (SupplierNo INT, CompName VARCHAR) RETURNS TABLE (Decision VARCHAR) LANGUAGE SQL RETURN SELECT DP.Answer FROM TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ, TABLE (GetReliability(BuySuppComp.SupplierNo)) AS GR, TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG, TABLE (GetCompNo(BuySuppComp.CompName)) AS GCN, TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP",
		"CREATE FUNCTION GetSubCompDiscounts (CompNo INT, Discount INT) RETURNS TABLE (SubCompNo INT, SupplierNo INT) LANGUAGE SQL RETURN SELECT GSCD.SubCompNo, GCS4D.SupplierNo FROM TABLE (GetSubCompNo(GetSubCompDiscounts.CompNo)) AS GSCD, TABLE (GetCompSupp4Discount(GetSubCompDiscounts.Discount)) AS GCS4D WHERE GSCD.SubCompNo = GCS4D.CompNo",
		"CREATE TABLE watchlist (SupplierNo INT, Note VARCHAR(30))",
		"CREATE INDEX wl_no ON watchlist (SupplierNo)",
		"CREATE VIEW v AS SELECT DISTINCT a FROM t",
		"CREATE SERVER erpsrv WRAPPER sqlwrapper OPTIONS (target 'erp')",
		"CREATE NICKNAME prices FOR erpsrv.prices",
		"INSERT INTO watchlist VALUES (3, 'strategic'), (7, 'probation')",
		"INSERT INTO t (a) SELECT b FROM u",
		"UPDATE t SET a = a + 1, b = 'x' WHERE k = 5",
		"DELETE FROM t WHERE k = 5 OR name = 'x'",
		"EXPLAIN SELECT * FROM t",
		"SHOW TABLES",
		"SET PARALLELISM 4",
		"DROP VIEW v",
	}
	f, err := os.Open(filepath.Join("..", "plan", "testdata", "lateral_explain.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sql, ok := strings.CutPrefix(sc.Text(), "-- "); ok && strings.HasPrefix(sql, "SELECT") && !seen[sql] {
			seen[sql] = true
			seeds = append(seeds, sql)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return seeds
}

// FuzzParse: rendering a parsed statement and parsing the rendering again
// reaches a fixpoint — the second parse succeeds and renders the same text.
// The entry points agree: a statement Parse accepts is ParseScript's only
// statement, and every error any of them returns starts with "sql: ".
func FuzzParse(f *testing.F) {
	for _, sql := range fuzzSeeds(f) {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		s1, err := Parse(sql)
		stmts, scriptErr := ParseScript(sql)
		_, selErr := ParseSelect(sql)
		for _, e := range []error{err, scriptErr, selErr} {
			if e != nil && !strings.HasPrefix(e.Error(), "sql: ") {
				t.Fatalf("%q: error %q does not start with \"sql: \"", sql, e)
			}
		}
		if err != nil {
			return
		}
		text := s1.String()
		if scriptErr != nil || len(stmts) != 1 || stmts[0].String() != text {
			t.Fatalf("%q parses as %q, but ParseScript returns %d statements, %v", sql, text, len(stmts), scriptErr)
		}
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", sql, text, err)
		}
		if again := s2.String(); again != text {
			t.Fatalf("%q renders as %q, which renders as %q", sql, text, again)
		}
	})
}

package engine

import (
	"context"
	"strings"
	"testing"
)

func TestViewBasics(t *testing.T) {
	s := newTestSession(t)
	s.MustExecContext(context.Background(), "CREATE VIEW good_suppliers AS SELECT No, Name FROM suppliers WHERE Rating >= 4")
	tab := queryRows(t, s, "SELECT Name FROM good_suppliers ORDER BY Name")
	if tab.Len() != 2 || tab.Rows[0][0].Str() != "ACME" {
		t.Errorf("view query:\n%s", tab)
	}
	// Views compose with base tables and carry aliases.
	tab = queryRows(t, s, `SELECT g.Name, p.PartName FROM good_suppliers g, parts p
		WHERE g.No = p.SuppNo ORDER BY p.PartNo LIMIT 1`)
	if tab.Len() != 1 || tab.Rows[0][1].Str() != "bolt" {
		t.Errorf("view join:\n%s", tab)
	}
	// SHOW VIEWS lists it.
	res := s.MustExecContext(context.Background(), "SHOW VIEWS")
	if res.Table.Len() != 1 || res.Table.Rows[0][0].Str() != "good_suppliers" {
		t.Errorf("SHOW VIEWS:\n%s", res.Table)
	}
	// Round trip through the printer.
	if _, err := s.ExecContext(context.Background(), "DROP VIEW good_suppliers"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryContext(context.Background(), "SELECT * FROM good_suppliers"); err == nil {
		t.Error("dropped view still queryable")
	}
}

func TestViewOverView(t *testing.T) {
	s := newTestSession(t)
	s.MustExecContext(context.Background(), "CREATE VIEW v1 AS SELECT No, Rating FROM suppliers")
	s.MustExecContext(context.Background(), "CREATE VIEW v2 AS SELECT No FROM v1 WHERE Rating > 3")
	tab := queryRows(t, s, "SELECT COUNT(*) FROM v2")
	if tab.Rows[0][0].Int() != 2 {
		t.Errorf("nested views: %v", tab.Rows[0])
	}
}

func TestViewValidationAndCollisions(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.ExecContext(context.Background(), "CREATE VIEW bad AS SELECT nope FROM suppliers"); err == nil {
		t.Error("invalid view accepted")
	}
	s.MustExecContext(context.Background(), "CREATE VIEW v AS SELECT 1 AS one")
	if _, err := s.ExecContext(context.Background(), "CREATE VIEW v AS SELECT 2 AS two"); err == nil {
		t.Error("duplicate view accepted")
	}
	if _, err := s.ExecContext(context.Background(), "CREATE TABLE v (a INT)"); err == nil {
		t.Error("table shadowing view accepted")
	}
	if _, err := s.ExecContext(context.Background(), "CREATE VIEW suppliers AS SELECT 1 AS x"); err == nil {
		t.Error("view shadowing table accepted")
	}
	if _, err := s.ExecContext(context.Background(), "DROP VIEW nope"); err == nil {
		t.Error("dropping unknown view accepted")
	}
	// A view may not be a DML target.
	if _, err := s.ExecContext(context.Background(), "INSERT INTO v VALUES (1)"); err == nil {
		t.Error("INSERT into view accepted")
	}
}

func TestViewNestingDepthBounded(t *testing.T) {
	s := newTestSession(t)
	// Building an ever-deeper view chain must eventually be rejected by
	// the expansion-depth guard (which also catches recursive
	// definitions); validation at CREATE time surfaces it.
	s.MustExecContext(context.Background(), "CREATE VIEW v0 AS SELECT No FROM suppliers")
	prev := "v0"
	var depthErr error
	for i := 1; i <= 20 && depthErr == nil; i++ {
		name := "v" + strings.Repeat("x", i)
		_, depthErr = s.ExecContext(context.Background(), "CREATE VIEW "+name+" AS SELECT No FROM "+prev)
		if depthErr == nil {
			prev = name
		}
	}
	if depthErr == nil {
		t.Fatal("view chain beyond the depth limit accepted")
	}
	if !strings.Contains(depthErr.Error(), "nesting") {
		t.Errorf("unexpected error: %v", depthErr)
	}
	// The deepest successfully created view still works.
	if _, err := s.QueryContext(context.Background(), "SELECT * FROM "+prev); err != nil {
		t.Errorf("deepest valid view: %v", err)
	}
}

func TestViewParsePrintRoundTrip(t *testing.T) {
	s := newTestSession(t)
	res := s.MustExecContext(context.Background(), "EXPLAIN SELECT * FROM suppliers")
	_ = res
	// Printer round trip at the AST level is covered in sqlparser; here we
	// check the message surface.
	r := s.MustExecContext(context.Background(), "CREATE VIEW msgv AS SELECT 1 AS one")
	if !strings.Contains(r.Message, "created") {
		t.Errorf("message = %q", r.Message)
	}
	r = s.MustExecContext(context.Background(), "DROP VIEW msgv")
	if !strings.Contains(r.Message, "dropped") {
		t.Errorf("message = %q", r.Message)
	}
}

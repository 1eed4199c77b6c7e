package plan

import (
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

func TestReorderLateralDependencies(t *testing.T) {
	cat := testCatalog(t)
	// The user writes the dependent item FIRST — illegal in DB2 v7.1, but
	// the reordering planner resolves it.
	tab := run(t, cat, `SELECT tw.y, f.n
		FROM TABLE (Twice(f.n)) AS tw, TABLE (Nums()) AS f
		ORDER BY f.n`, nil)
	if tab.Len() != 3 || tab.Rows[0][0].Int() != 2 || tab.Rows[2][0].Int() != 6 {
		t.Errorf("reordered laterals:\n%s", tab)
	}
}

func TestReorderChainWrittenBackwards(t *testing.T) {
	cat := testCatalog(t)
	// Three items written in fully reversed dependency order.
	tab := run(t, cat, `SELECT t2.y
		FROM TABLE (Twice(t1.y)) AS t2,
		     TABLE (Twice(f.n)) AS t1,
		     TABLE (Nums()) AS f
		WHERE f.n = 2`, nil)
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 8 {
		t.Errorf("backward chain:\n%s", tab)
	}
}

func TestReorderKeepsWrittenOrderWhenFree(t *testing.T) {
	items := mustFrom(t, "SELECT 1 FROM a, b, c")
	out, err := reorderFromItems(items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if out[i] != items[i] {
			t.Fatalf("independent items reordered: %v", out)
		}
	}
}

func TestReorderCycleRejected(t *testing.T) {
	cat := testCatalog(t)
	sel, err := sqlparser.ParseSelect(
		"SELECT 1 FROM TABLE (Twice(b.y)) AS a, TABLE (Twice(a.y)) AS b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileSelect(cat, sel, nil); err == nil {
		t.Error("cyclic FROM dependency accepted")
	}
}

func TestReorderIgnoresParameterQualifiers(t *testing.T) {
	cat := testCatalog(t)
	// A qualifier that names the enclosing function, not a correlation,
	// must not create a dependency edge.
	p := []arg{{catalog.Param{Corr: "MyFn", Name: "p", Type: types.Integer}, types.NewInt(27)}}
	tab := run(t, cat, "SELECT tw.y FROM TABLE (Twice(MyFn.p)) AS tw", p)
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 54 {
		t.Errorf("param qualifier:\n%s", tab)
	}
}

func mustFrom(t *testing.T, sql string) []sqlparser.FromItem {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	return sel.From
}

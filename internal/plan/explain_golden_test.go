package plan

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"fedwf/internal/exec"
	"fedwf/internal/exec/batcher"
	"fedwf/internal/sqlparser"
)

// lateralCorpus is every FROM shape that plans a lateral join, a hash join or
// a nested loop: function calls fed by a table or by another call, inner and
// LEFT joins with and without ON, independent right sides, and a right side
// that must stay sequential.
var lateralCorpus = []string{
	"SELECT s.Name, f.y FROM suppliers s, TABLE (Twice(s.No)) AS f",
	"SELECT s.Name, f.y FROM suppliers s, TABLE (Twice(s.No)) AS f WHERE f.y > 2",
	"SELECT s.Name, f.y, g.y FROM suppliers s, TABLE (Twice(s.No)) AS f, TABLE (Twice(f.y)) AS g",
	"SELECT tw.y FROM TABLE (Nums()) AS f, TABLE (Twice(f.n)) AS tw",
	"SELECT COUNT(*) FROM suppliers s, TABLE (Twice(s.No)) AS f",
	"SELECT s.Name, f.y FROM suppliers s CROSS JOIN TABLE (Twice(s.No)) AS f",
	"SELECT s.Name, f.y FROM suppliers s LEFT JOIN TABLE (Twice(s.No)) AS f ON f.y > 2",
	"SELECT s.Name, n.n FROM suppliers s LEFT JOIN TABLE (Nums()) AS n ON n.n = s.No",
	"SELECT s.Name, p.PartNo FROM suppliers s LEFT JOIN parts p ON s.No = p.SuppNo",
	"SELECT s.Name, n.n FROM suppliers s, TABLE (Nums()) AS n",
	"SELECT s.Name, p.PartNo FROM suppliers s, parts p WHERE s.No = p.SuppNo",
	"SELECT s.Name, p.PartNo FROM suppliers s JOIN parts p ON s.No = p.SuppNo AND p.PartNo > 10",
	"SELECT s.Name, p.PartNo FROM suppliers s, parts p WHERE s.No < p.SuppNo",
	"SELECT s.Name, d.c FROM suppliers s, (SELECT COUNT(*) AS c FROM parts) AS d",
}

// lateralOptions are the planner settings the corpus is explained under.
var lateralOptions = []Options{
	{},
	{Parallelism: 2},
	{Batch: batcher.Policy{Count: 8}},
	{Parallelism: 2, Batch: batcher.Policy{Count: 8}},
	{Parallelism: 4, Batch: batcher.Policy{Count: 3}, DisableHashJoin: true},
}

// The EXPLAIN text of every lateral plan is pinned: the plan-shape store keys
// measured actuals by it and clients match on it.
func TestLateralExplainGolden(t *testing.T) {
	cat := testCatalog(t)
	var b strings.Builder
	for _, opts := range lateralOptions {
		for _, sql := range lateralCorpus {
			sel, err := sqlparser.ParseSelect(sql)
			if err != nil {
				t.Fatal(err)
			}
			op, err := CompileSelectOpts(cat, sel, nil, opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			fmt.Fprintf(&b, "-- parallelism=%d batch=%s no-hash-join=%v\n-- %s\n%s\n",
				opts.Parallelism, opts.Batch, opts.DisableHashJoin, sql, exec.ExplainString(op))
		}
	}
	want, err := os.ReadFile("testdata/lateral_explain.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("EXPLAIN text differs from testdata/lateral_explain.golden; got:\n%s", got)
	}
}

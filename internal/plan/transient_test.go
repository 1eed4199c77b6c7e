package plan

import (
	"fmt"
	"testing"

	"fedwf/internal/exec"
)

// transientJoins lists the Transient flag of every HashJoin in the plan, in
// EXPLAIN order, looking through EXPLAIN ANALYZE's Analyzed wrappers.
func transientJoins(op exec.Operator) []bool {
	if an, ok := op.(*exec.Analyzed); ok {
		op = an.Child
	}
	var out []bool
	if hj, ok := op.(*exec.HashJoin); ok {
		out = append(out, hj.Transient)
	}
	for _, c := range op.Children() {
		out = append(out, transientJoins(c)...)
	}
	return out
}

// A HashJoin reuses its output row only where an Agg reads it, directly or
// through Filters: every other consumer may keep the rows it is given.
func TestTransientOnlyUnderAgg(t *testing.T) {
	cat := testCatalog(t)
	const join = "FROM suppliers s, parts p WHERE s.No = p.SuppNo"
	for _, c := range []struct {
		sql  string
		want []bool
	}{
		{"SELECT s.Name, COUNT(*) " + join + " GROUP BY s.Name", []bool{true}},
		{"SELECT COUNT(*) " + join, []bool{true}},
		{"SELECT s.Name, COUNT(*) " + join + " GROUP BY s.Name HAVING COUNT(*) > 1 ORDER BY s.Name", []bool{true}},
		// A non-key ON conjunct is a Filter between the Agg and the join.
		{"SELECT COUNT(*) FROM suppliers s JOIN parts p ON s.No = p.SuppNo AND p.PartNo > s.No", []bool{true}},
		// Only the join the Agg reads; the lower one feeds a join's probe.
		{"SELECT s.Name, COUNT(*) FROM suppliers s, parts p, parts q WHERE s.No = p.SuppNo AND p.PartNo = q.PartNo GROUP BY s.Name", []bool{true, false}},
		{"SELECT d.c FROM (SELECT COUNT(*) AS c " + join + ") d", []bool{true}},

		{"SELECT s.Name, p.PartNo " + join, []bool{false}},
		{"SELECT s.Name, p.PartNo " + join + " ORDER BY p.PartNo", []bool{false}},
		{"SELECT DISTINCT s.Name " + join, []bool{false}},
		{"SELECT COUNT(*) FROM (SELECT s.Name, p.PartNo " + join + ") d", []bool{false}},
		{"SELECT COUNT(*) FROM (SELECT * " + join + ") d", []bool{false}},
	} {
		op := compile(t, cat, c.sql, nil)
		if got := transientJoins(op); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: Transient %v, want %v\n%s", c.sql, got, c.want, exec.ExplainString(op))
		}
	}
	// EXPLAIN ANALYZE puts an Analyzed between the Agg and the join.
	op := exec.Instrument(compile(t, cat, "SELECT s.Name, COUNT(*) "+join+" GROUP BY s.Name", nil))
	if got := transientJoins(op); fmt.Sprint(got) != "[false]" {
		t.Errorf("instrumented plan: Transient %v, want [false]\n%s", got, exec.ExplainString(op))
	}
}

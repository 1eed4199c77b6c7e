package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fedwf/internal/plan"
)

// rowMultiset is what a client can observe of a SELECT whose row order is
// not specified: the rows as a sorted list, or the error text.
func rowMultiset(s *Session, sql string) string {
	res, err := s.ExecContext(context.Background(), sql)
	if err != nil {
		return "error: " + err.Error()
	}
	lines := make([]string, len(res.Table.Rows))
	for i, r := range res.Table.Rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// joinKeyLiterals are the values the differential test draws join keys
// from, per column type: few enough that keys repeat on both sides, and for
// BIGINT and DOUBLE including the neighbours of 2^53, where an INT compared
// with a DOUBLE as float64 is "equal" to a value it does not hash like.
var joinKeyLiterals = map[string][]string{
	"SMALLINT":   {"0", "1", "2", "3", "NULL"},
	"INT":        {"0", "1", "2", "3", "NULL"},
	"BIGINT":     {"0", "1", "2", "9007199254740992", "9007199254740993", "NULL"},
	"DOUBLE":     {"0.0", "1.0", "2.0", "1.5", "9007199254740992.0", "NULL"},
	"VARCHAR(8)": {"'0'", "'1'", "'2'", "'a'", "''", "NULL"},
	"BOOLEAN":    {"TRUE", "FALSE", "NULL"},
}

// TestHashJoinMatchesNestedLoop is the oracle for the one optimizer choice
// the engine makes on its own: whatever the planner does with an equi-join —
// hash it, or leave it to Apply + Filter — a client must see what the
// nested-loop plan (plan.Options.DisableHashJoin) shows: the same rows, or
// the same error. It runs every pair of key column types over seeded random
// tables with NULL keys and duplicates on both sides, with a two-column key,
// a residual predicate, and grouping, ordering and DISTINCT on top.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	keyTypes := []string{"SMALLINT", "INT", "BIGINT", "DOUBLE", "VARCHAR(8)", "BOOLEAN"}
	for _, lt := range keyTypes {
		for _, rt := range keyTypes {
			for seed := int64(1); seed <= 3; seed++ {
				hashed, nested := New(), New()
				nested.SetPlanOptions(plan.Options{DisableHashJoin: true})
				hs, ns := hashed.NewSession(), nested.NewSession()
				both := func(sql string) {
					hs.MustExecContext(context.Background(), sql)
					ns.MustExecContext(context.Background(), sql)
				}
				both(fmt.Sprintf("CREATE TABLE l (K %s, K2 INT, V INT)", lt))
				both(fmt.Sprintf("CREATE TABLE r (K %s, K2 INT, W INT)", rt))
				rng := rand.New(rand.NewSource(seed))
				fill := func(table, typ string) {
					keys := joinKeyLiterals[typ]
					for i, n := 0, 6+rng.Intn(10); i < n; i++ {
						both(fmt.Sprintf("INSERT INTO %s VALUES (%s, %d, %d)",
							table, keys[rng.Intn(len(keys))], rng.Intn(2), rng.Intn(10)))
					}
				}
				fill("l", lt)
				fill("r", rt)
				x := rng.Intn(10)
				for _, sql := range []string{
					"SELECT l.K, l.V, r.K, r.W FROM l, r WHERE l.K = r.K",
					"SELECT l.K, l.V, r.K, r.W FROM l, r WHERE r.K = l.K",
					"SELECT l.V, r.W FROM l JOIN r ON l.K = r.K",
					"SELECT l.V, r.W FROM l JOIN r ON l.K = r.K AND l.K2 = r.K2",
					"SELECT l.V, r.W FROM l, r WHERE l.K2 = r.K2 AND l.K = r.K",
					fmt.Sprintf("SELECT l.V, r.W FROM l, r WHERE l.K = r.K AND l.V >= %d", x),
					"SELECT COUNT(*) FROM l, r WHERE l.K = r.K",
					"SELECT l.K, COUNT(*), SUM(r.W) FROM l, r WHERE l.K = r.K GROUP BY l.K",
					"SELECT l.V, r.W FROM l, r WHERE l.K = r.K ORDER BY l.V, r.W DESC",
					"SELECT DISTINCT l.K, r.K FROM l, r WHERE l.K = r.K",
				} {
					if got, want := rowMultiset(hs, sql), rowMultiset(ns, sql); got != want {
						t.Errorf("l.K %s, r.K %s, seed %d: %s\ndefault plan:\n%s\nnested loop:\n%s\nplan:\n%s",
							lt, rt, seed, sql, got, want, hs.MustExecContext(context.Background(), "EXPLAIN "+sql).Table)
					}
				}
			}
		}
	}
}

// The two silent wrong answers the differential test was written after: a
// hash join across kinds Compare refuses returned no rows where the nested
// loop raises, and across INT and DOUBLE above 2^53 it missed a match.
func TestJoinAcrossKindsIsNotHashed(t *testing.T) {
	s := New().NewSession()
	s.MustExecContext(context.Background(), "CREATE TABLE a (S VARCHAR(10))")
	s.MustExecContext(context.Background(), "CREATE TABLE b (K INT)")
	s.MustExecContext(context.Background(), "INSERT INTO a VALUES ('1')")
	s.MustExecContext(context.Background(), "INSERT INTO b VALUES (1)")
	if _, err := s.ExecContext(context.Background(), "SELECT * FROM a, b WHERE a.S = b.K"); err == nil || !strings.Contains(err.Error(), "cannot compare STRING with INT") {
		t.Errorf("VARCHAR = INT join: err = %v, want the comparison error", err)
	}
	s.MustExecContext(context.Background(), "CREATE TABLE c (K BIGINT)")
	s.MustExecContext(context.Background(), "CREATE TABLE d (F DOUBLE)")
	s.MustExecContext(context.Background(), "INSERT INTO c VALUES (9007199254740993)")
	s.MustExecContext(context.Background(), "INSERT INTO d VALUES (9007199254740992.0)")
	if got := s.MustExecContext(context.Background(), "SELECT COUNT(*) FROM c, d WHERE c.K = d.F").Table.Rows[0][0].Int(); got != 1 {
		t.Errorf("BIGINT = DOUBLE join above 2^53 counts %d rows, the comparison says 1", got)
	}

	// Only key pairs of known, different kinds lose the hash join; a side
	// of unknown type keeps it.
	s.MustExecContext(context.Background(), "CREATE TABLE e (K SMALLINT)")
	for _, c := range []struct {
		sql             string
		hashed, applied bool
	}{
		{"SELECT * FROM a, b WHERE a.S = b.K", false, true},
		{"SELECT * FROM c, d WHERE c.K = d.F", false, true},
		{"SELECT * FROM a JOIN b ON a.S = b.K", false, true},
		{"SELECT * FROM b, c WHERE b.K = c.K", true, false},
		{"SELECT * FROM b, e WHERE e.K = b.K", true, false},
		{"SELECT * FROM b, d WHERE b.K = COALESCE(NULL, d.F)", true, false},
		{"SELECT * FROM b JOIN c ON b.K = c.K AND b.K = 1", true, false},
		{"SELECT * FROM b, c, d WHERE b.K = c.K AND c.K = d.F", true, true},
	} {
		plan := s.MustExecContext(context.Background(), "EXPLAIN "+c.sql).Table.String()
		if strings.Contains(plan, "HashJoin") != c.hashed || strings.Contains(plan, "Apply") != c.applied {
			t.Errorf("EXPLAIN %s: want HashJoin %v, Apply %v\n%s", c.sql, c.hashed, c.applied, plan)
		}
	}
}

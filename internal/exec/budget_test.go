package exec_test

import (
	"context"
	"fmt"
	"testing"

	"fedwf/internal/engine"
)

// The statement of fedbench's local_join workload — 2 000 x 500 rows joined
// on 100 key values into 10 000 rows, grouped into 100 — allocated 44 500
// times when every hash, every joined row and every input row's group key
// was an allocation of its own. The budget keeps a per-row allocation from
// coming back unnoticed; per-chunk allocation sits near 1 300.
func TestLocalJoinAllocationBudget(t *testing.T) {
	s := engine.New().NewSession()
	s.MustExecContext(context.Background(), "CREATE TABLE l (K INT, V INT)")
	s.MustExecContext(context.Background(), "CREATE TABLE r (K INT, W INT)")
	for i := 0; i < 2000; i += 100 {
		l, r := "INSERT INTO l VALUES ", "INSERT INTO r VALUES "
		for j := i; j < i+100; j++ {
			l += fmt.Sprintf("(%d, %d),", j%100, j)
			r += fmt.Sprintf("(%d, %d),", j%100, j)
		}
		s.MustExecContext(context.Background(), l[:len(l)-1])
		if i < 500 {
			s.MustExecContext(context.Background(), r[:len(r)-1])
		}
	}
	const sql = "SELECT l.K, COUNT(*), SUM(r.W) FROM l, r WHERE l.K = r.K AND l.V >= 17 GROUP BY l.K"
	allocs := testing.AllocsPerRun(5, func() {
		res, err := s.ExecContext(context.Background(), sql)
		if err != nil || res.Table.Len() != 100 {
			t.Fatalf("local_join statement: %v, %v", res, err)
		}
	})
	if allocs >= 3000 {
		t.Errorf("local_join statement allocates %.0f times, budget 3000", allocs)
	}
}

package exec_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fedwf/internal/engine"
)

// The statement of fedbench's local_join workload — 2 000 x 500 rows joined
// on 100 key values into 10 000 rows, grouped into 100 — allocated 44 500
// times when every hash, every joined row and every input row's group key
// was an allocation of its own, and 1 275 times (1.42 MB) when the join
// still carved each of its 10 000 rows from a slab, kept a slice per hash
// key and the Agg an object per group and per aggregate state. Now the join
// hands the Agg one reused row (HashJoin.Transient), its build side is one
// chained table and the Agg's states one arena: near 240 allocations and
// 120 KB. The budgets keep a per-row or per-group allocation, or joined
// rows built only to be folded, from coming back unnoticed.
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
	run := func() {
		res, err := s.ExecContext(context.Background(), sql)
		if err != nil || res.Table.Len() != 100 {
			t.Fatalf("local_join statement: %v, %v", res, err)
		}
	}
	if allocs := testing.AllocsPerRun(5, run); allocs >= 800 {
		t.Errorf("local_join statement allocates %.0f times, budget 800", allocs)
	}
	if bytes := bytesPerRun(5, run); bytes >= localJoinByteBudget {
		t.Errorf("local_join statement allocates %.0f bytes, budget %d", bytes, localJoinByteBudget)
	}
}

// localJoinByteBudget sits between what the local_join statement allocated
// when the join built every joined row (1.42 MB) and what it allocates
// folding them through one reused row (~120 KB).
const localJoinByteBudget = 400_000

// bytesPerRun is the heap bytes one call of f allocates, averaged over runs
// after one warm-up call. Like testing.AllocsPerRun it runs at GOMAXPROCS
// 1: the counter is process-wide, and other goroutines allocate into it.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// wideByteBudget sits between what the wide_result statement allocated
// when the executor copied the answer (404 KB: the scan's copy of the heap,
// a projected row per row, the collector's 1.25x append growth) and what
// it allocates forwarding the table's own rows (110 KB).
const wideByteBudget = 200_000

// TestWideResultByteBudget: fedbench's wide_result statement, in process
// through Session.ExecContext — 1 983 of 2 000 three-column rows.
func TestWideResultByteBudget(t *testing.T) {
	s := engine.New().NewSession()
	ctx := context.Background()
	s.MustExecContext(ctx, "CREATE TABLE wide (K INT, V INT, S VARCHAR(16))")
	for i := 0; i < 2000; i += 100 {
		sql := "INSERT INTO wide VALUES "
		for j := i; j < i+100; j++ {
			sql += fmt.Sprintf("(%d, %d, 'row-%012d'),", j, j*7919%1000, j)
		}
		s.MustExecContext(ctx, sql[:len(sql)-1])
	}
	const sql = "SELECT K, V, S FROM wide WHERE K >= 17"
	bytes := bytesPerRun(20, func() {
		res, err := s.ExecContext(ctx, sql)
		if err != nil || res.Table.Len() != 1983 {
			t.Fatalf("wide_result statement: %v, %v", res, err)
		}
	})
	if bytes >= wideByteBudget {
		t.Errorf("wide_result statement allocates %.0f bytes, budget %d", bytes, wideByteBudget)
	}
}

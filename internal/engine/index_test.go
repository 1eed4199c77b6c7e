package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// outcome flattens everything a client can observe of one statement.
func outcome(s *Session, sql string) string {
	res, err := s.ExecContext(context.Background(), sql)
	if err != nil {
		return "error: " + err.Error()
	}
	out := fmt.Sprintf("affected=%d message=%q", res.RowsAffected, res.Message)
	if res.Table != nil {
		out += "\n" + res.Table.String()
	}
	return out
}

// TestIndexedTwinDifferential is the oracle for the index access path: two
// engines hold the same table, one with hash indexes and one without, and
// the same seeded stream of statements must be indistinguishable on them —
// results, row order, affected-row counts, error texts, and the heap left
// behind. The stream mixes the shapes the index answers with the ones it
// must leave to scan + Filter (other kinds, NULL, expressions, the padded
// side of an outer join) and with DML that re-files and removes rows.
func TestIndexedTwinDifferential(t *testing.T) {
	const create = "CREATE TABLE t (K INT, V INT, S VARCHAR(8), D DOUBLE, B BOOLEAN)"
	for seed := int64(1); seed <= 4; seed++ {
		indexed, plain := New().NewSession(), New().NewSession()
		indexed.MustExecContext(context.Background(), create)
		plain.MustExecContext(context.Background(), create)
		for _, col := range []string{"K", "S", "D", "B"} {
			indexed.MustExecContext(context.Background(), fmt.Sprintf("CREATE INDEX idx_%s ON t (%s)", col, col))
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			k, v := rng.Intn(12), rng.Intn(8)
			shapes := []string{
				fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 's%d', %d.5, %v)", k, v, k, k, k%2 == 0),
				fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 's%d', %d.5, %v)", k, v, k, k, k%2 == 0),
				fmt.Sprintf("INSERT INTO t (V) VALUES (%d)", v), // NULL keys
				fmt.Sprintf("SELECT * FROM t WHERE K = %d", k),
				fmt.Sprintf("SELECT V FROM t WHERE %d = K", k),
				fmt.Sprintf("SELECT * FROM t WHERE K = %d AND V > 0", k),
				fmt.Sprintf("SELECT * FROM t WHERE V > 0 AND t.K = %d", k),
				fmt.Sprintf("SELECT * FROM t WHERE K = %d AND K = %d", k, rng.Intn(12)),
				fmt.Sprintf("SELECT * FROM t WHERE K = '%d'", k),
				fmt.Sprintf("SELECT * FROM t WHERE K = %d.0", k),
				"SELECT * FROM t WHERE K = NULL",
				fmt.Sprintf("SELECT * FROM t WHERE K = %d + 0", k),
				fmt.Sprintf("SELECT * FROM t WHERE K = -%d", k),
				fmt.Sprintf("SELECT * FROM t WHERE S = 's%d'", k),
				fmt.Sprintf("SELECT * FROM t WHERE S = %d", k),
				fmt.Sprintf("SELECT * FROM t WHERE D = %d.5", k),
				fmt.Sprintf("SELECT * FROM t WHERE D = %d", k),
				"SELECT K, V FROM t WHERE B = TRUE",
				fmt.Sprintf("SELECT a.V, b.V FROM t a, t b WHERE a.K = %d AND b.K = a.K", k),
				fmt.Sprintf("SELECT a.V, b.V FROM t a JOIN t b ON a.V = b.V WHERE b.K = %d", k),
				fmt.Sprintf("SELECT a.K, b.V FROM t a LEFT JOIN t b ON a.V = b.K WHERE b.K = %d", k),
				fmt.Sprintf("SELECT a.K, b.V FROM t a LEFT JOIN t b ON a.V = b.K WHERE a.K = %d", k),
				fmt.Sprintf("SELECT COUNT(*), SUM(V) FROM t WHERE K = %d", k),
				fmt.Sprintf("UPDATE t SET V = V + 1 WHERE K = %d", k),
				fmt.Sprintf("UPDATE t SET V = V + 1 WHERE K = %d AND V > %d", k, v),
				fmt.Sprintf("UPDATE t SET K = K + 1 WHERE K = %d", k),
				fmt.Sprintf("UPDATE t SET S = 's%d', D = %d.5 WHERE S = 's%d'", v, v, k),
				// Overflows INTEGER on the rows with a large V: the rows
				// before the first such row, in heap order, stay updated.
				fmt.Sprintf("UPDATE t SET V = V * 500000000 WHERE K = %d", k),
				fmt.Sprintf("UPDATE t SET V = 1 WHERE K = '%d'", k),
				fmt.Sprintf("DELETE FROM t WHERE K = %d", k),
				fmt.Sprintf("DELETE FROM t WHERE K = %d AND V = %d", k, v),
				fmt.Sprintf("DELETE FROM t WHERE K = '%d'", k),
				fmt.Sprintf("DELETE FROM t WHERE V = %d", v),
				"DELETE FROM t WHERE K = NULL",
				"SELECT * FROM t",
			}
			sql := shapes[rng.Intn(len(shapes))]
			if got, want := outcome(indexed, sql), outcome(plain, sql); got != want {
				t.Fatalf("seed %d, statement %d: %s\nindexed:\n%s\nunindexed:\n%s", seed, i, sql, got, want)
			}
		}
		if got, want := outcome(indexed, "SELECT * FROM t"), outcome(plain, "SELECT * FROM t"); got != want {
			t.Fatalf("seed %d: final heaps differ\nindexed:\n%s\nunindexed:\n%s", seed, got, want)
		}
	}
}

// TestMixedReadWriteConcurrent runs fedbench's mixed_rw mix — point SELECT,
// UPDATE, INSERT and DELETE by primary key, each worker churning keys it
// owns — from several sessions on one engine, with that workload's
// invariants: every write affects exactly one row, SUM(V) is the number of
// acknowledged updates, and the churn range holds loaded + inserted -
// deleted rows. Run with -race.
func TestMixedReadWriteConcurrent(t *testing.T) {
	const (
		base    = 500
		workers = 8
		held    = 4
		ops     = 400
	)
	eng := New()
	setup := eng.NewSession()
	setup.MustExecContext(context.Background(), "CREATE TABLE kv (K INT PRIMARY KEY, V INT)")
	for k := 0; k < base; k++ {
		setup.MustExecContext(context.Background(), fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", k))
	}
	churnKey := func(w, j int) int { return base + w + workers*j }
	for w := 0; w < workers; w++ {
		for j := 0; j < held; j++ {
			setup.MustExecContext(context.Background(), fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", churnKey(w, j)))
		}
	}

	var updated, inserted, deleted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := eng.NewSession()
			rng := rand.New(rand.NewSource(int64(w)))
			oldest, next := 0, held
			write := func(sql string, acked *atomic.Int64) bool {
				res, err := s.ExecContext(context.Background(), sql)
				if err != nil || res.RowsAffected != 1 {
					t.Errorf("%s: affected %+v, err %v; want exactly one row", sql, res, err)
					return false
				}
				acked.Add(1)
				return true
			}
			for i := 0; i < ops; i++ {
				ok := true
				switch p := rng.Intn(100); {
				case p < 70:
					sql := fmt.Sprintf("SELECT V FROM kv WHERE K = %d", rng.Intn(base))
					tab, err := s.QueryContext(context.Background(), sql)
					if err != nil || tab.Len() != 1 || tab.Rows[0][0].Int() < 0 {
						t.Errorf("%s: %v, err %v; want one row", sql, tab, err)
						ok = false
					}
				case p < 90:
					ok = write(fmt.Sprintf("UPDATE kv SET V = V + 1 WHERE K = %d", rng.Intn(base)), &updated)
				case p < 95 || next-oldest < 2:
					ok = write(fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", churnKey(w, next)), &inserted)
					next++
				default:
					ok = write(fmt.Sprintf("DELETE FROM kv WHERE K = %d", churnKey(w, oldest)), &deleted)
					oldest++
				}
				if !ok {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	scalar := func(sql string) int64 {
		t.Helper()
		tab, err := setup.QueryContext(context.Background(), sql)
		if err != nil || tab.Len() != 1 {
			t.Fatalf("%s: %v, %v", sql, tab, err)
		}
		return tab.Rows[0][0].Int()
	}
	if sum := scalar(fmt.Sprintf("SELECT SUM(V) FROM kv WHERE K < %d", base)); sum != updated.Load() {
		t.Errorf("SUM(V) = %d after %d acknowledged updates", sum, updated.Load())
	}
	want := workers*held + inserted.Load() - deleted.Load()
	if churn := scalar(fmt.Sprintf("SELECT COUNT(*) FROM kv WHERE K >= %d", base)); churn != want {
		t.Errorf("%d churn rows, want %d loaded + %d inserted - %d deleted", churn, workers*held, inserted.Load(), deleted.Load())
	}
	// Every survivor is reachable through the index, once.
	for w := 0; w < workers; w++ {
		for j := 0; j < ops; j++ {
			if n := scalar(fmt.Sprintf("SELECT COUNT(*) FROM kv WHERE K = %d", churnKey(w, j))); n > 1 {
				t.Fatalf("key %d found %d times through the index", churnKey(w, j), n)
			}
		}
	}
}

package engine

import (
	"context"
	"fmt"
	"testing"

	"fedwf/internal/types"
)

// Point statements through Session.ExecContext — parse, plan, execute —
// on fedbench's mixed_rw table shape at benchRows rows, each with the hash
// index ("indexed": IndexScan / keyed DML) and without ("scan": TableScan +
// Filter / every row under the write lock).
const benchRows = 10000

func benchPoint(b *testing.B, stmts func(k int) []string) {
	for _, c := range []struct{ name, ddl string }{
		{"indexed", "CREATE TABLE kv (K INT PRIMARY KEY, V INT)"},
		{"scan", "CREATE TABLE kv (K INT, V INT)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New().NewSession()
			s.MustExecContext(context.Background(), c.ddl)
			tab, err := s.Engine().Catalog().Table("kv")
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < benchRows; k++ {
				if err := tab.Insert(types.Row{types.NewInt(int64(k)), types.NewInt(0)}); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sql := range stmts(i * 7919 % benchRows) {
					res, err := s.ExecContext(ctx, sql)
					if err != nil || res.RowsAffected != 1 {
						b.Fatalf("%s: %+v, %v", sql, res, err)
					}
				}
			}
		})
	}
}

func BenchmarkPointSelect(b *testing.B) {
	benchPoint(b, func(k int) []string {
		return []string{fmt.Sprintf("SELECT V FROM kv WHERE K = %d", k)}
	})
}

func BenchmarkPointUpdate(b *testing.B) {
	benchPoint(b, func(k int) []string {
		return []string{fmt.Sprintf("UPDATE kv SET V = V + 1 WHERE K = %d", k)}
	})
}

// The INSERT puts the row back so the table keeps its size; it lands at
// the end of the heap, so over time the deletes hit every position.
func BenchmarkPointDeleteInsert(b *testing.B) {
	benchPoint(b, func(k int) []string {
		return []string{
			fmt.Sprintf("DELETE FROM kv WHERE K = %d", k),
			fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", k),
		}
	})
}

package storage

import (
	"testing"

	"fedwf/internal/types"
)

// The table every benchmark here runs on: benchRows rows, K the indexed
// key 0..benchRows-1, V a counter — the shape of fedbench's mixed_rw table.
const benchRows = 10000

func benchTable(b *testing.B) *Table {
	b.Helper()
	tab, err := NewTable("kv", types.Schema{
		{Name: "K", Type: types.Integer},
		{Name: "V", Type: types.Integer},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tab.CreateIndex("K"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRows; i++ {
		if err := tab.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(0)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	return tab
}

var sinkRows []types.Row

func BenchmarkLookup(b *testing.B) {
	tab := benchTable(b)
	for i := 0; i < b.N; i++ {
		rows, err := tab.Lookup("K", types.NewInt(int64(i%benchRows)))
		if err != nil || len(rows) != 1 {
			b.Fatalf("Lookup = %v, %v", rows, err)
		}
		sinkRows = rows
	}
}

func BenchmarkUpdateKey(b *testing.B) {
	tab := benchTable(b)
	for i := 0; i < b.N; i++ {
		k := int64(i % benchRows)
		n, err := tab.UpdateKey("K", types.NewInt(k),
			func(r types.Row) (bool, error) { return r[0].Int() == k, nil },
			func(r types.Row) (types.Row, error) { r[1] = types.NewInt(r[1].Int() + 1); return r, nil })
		if err != nil || n != 1 {
			b.Fatalf("UpdateKey = %d, %v", n, err)
		}
	}
}

// A delete anywhere in the heap moves every later row and index position
// down by one; the key walks the table so the mean move is half of it.
func BenchmarkDeleteKeyInsert(b *testing.B) {
	tab := benchTable(b)
	for i := 0; i < b.N; i++ {
		k := int64(i * 7919 % benchRows)
		if n, err := tab.DeleteKey("K", types.NewInt(k), func(r types.Row) (bool, error) { return r[0].Int() == k, nil }); n != 1 || err != nil {
			b.Fatalf("DeleteKey removed %d rows, %v", n, err)
		}
		if err := tab.Insert(types.Row{types.NewInt(k), types.NewInt(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	tab := benchTable(b)
	for i := 0; i < b.N; i++ {
		sinkRows = tab.Scan()
	}
}

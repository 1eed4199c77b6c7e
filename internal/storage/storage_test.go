package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"fedwf/internal/types"
)

func compSchema() types.Schema {
	return types.Schema{
		{Name: "CompNo", Type: types.Integer},
		{Name: "Name", Type: types.VarCharN(30)},
		{Name: "Qty", Type: types.Integer},
	}
}

func newCompTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("components", compSchema())
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	rows := []types.Row{
		{types.NewInt(1), types.NewString("bolt"), types.NewInt(100)},
		{types.NewInt(2), types.NewString("nut"), types.NewInt(250)},
		{types.NewInt(3), types.NewString("washer"), types.NewInt(70)},
	}
	if err := tab.InsertAll(rows); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", compSchema()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewTable("t", nil); err == nil {
		t.Error("empty schema accepted")
	}
	dup := types.Schema{{Name: "A", Type: types.Integer}, {Name: "a", Type: types.Integer}}
	if _, err := NewTable("t", dup); err == nil {
		t.Error("duplicate columns accepted")
	}
}

func TestInsertCoercionAndValidation(t *testing.T) {
	tab := newCompTable(t)
	// String "4" should coerce to INT 4.
	if err := tab.Insert(types.Row{types.NewString("4"), types.NewString("pin"), types.NewInt(5)}); err != nil {
		t.Fatalf("Insert coercible: %v", err)
	}
	rows, err := tab.Lookup("CompNo", types.NewInt(4))
	if err != nil || len(rows) != 1 {
		t.Fatalf("Lookup(4) = %v, %v", rows, err)
	}
	if err := tab.Insert(types.Row{types.NewString("x"), types.NewString("pin"), types.NewInt(5)}); err == nil {
		t.Error("uncoercible insert accepted")
	}
	if err := tab.Insert(types.Row{types.NewInt(9)}); err == nil {
		t.Error("short row accepted")
	}
}

func TestScanSnapshot(t *testing.T) {
	tab := newCompTable(t)
	snap := tab.Scan()
	if len(snap) != 3 {
		t.Fatalf("Scan len = %d", len(snap))
	}
	// Mutating the table after Scan must not change the snapshot length.
	if err := tab.Insert(types.Row{types.NewInt(4), types.NewString("pin"), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 3 {
		t.Error("snapshot changed after insert")
	}
}

func TestSelect(t *testing.T) {
	tab := newCompTable(t)
	rows := tab.Select(func(r types.Row) bool { return r[2].Int() > 90 })
	if len(rows) != 2 {
		t.Errorf("Select = %d rows", len(rows))
	}
}

func TestUpdate(t *testing.T) {
	tab := newCompTable(t)
	n, err := tab.Update(
		func(r types.Row) bool { return r[1].Str() == "nut" },
		func(r types.Row) types.Row { r[2] = types.NewInt(999); return r },
	)
	if err != nil || n != 1 {
		t.Fatalf("Update = %d, %v", n, err)
	}
	rows, _ := tab.Lookup("Name", types.NewString("nut"))
	if len(rows) != 1 || rows[0][2].Int() != 999 {
		t.Errorf("after update: %v", rows)
	}
	// Updates producing invalid rows fail.
	_, err = tab.Update(
		func(r types.Row) bool { return true },
		func(r types.Row) types.Row { r[0] = types.NewString("x"); return r },
	)
	if err == nil {
		t.Error("invalid update accepted")
	}
}

func TestDeleteAndTruncate(t *testing.T) {
	tab := newCompTable(t)
	if err := tab.CreateIndex("CompNo"); err != nil {
		t.Fatal(err)
	}
	n := tab.Delete(func(r types.Row) bool { return r[0].Int() == 2 })
	if n != 1 || tab.Len() != 2 {
		t.Errorf("Delete = %d, len = %d", n, tab.Len())
	}
	// The index must have been rebuilt consistently.
	rows, _ := tab.Lookup("CompNo", types.NewInt(3))
	if len(rows) != 1 || rows[0][1].Str() != "washer" {
		t.Errorf("index after delete: %v", rows)
	}
	if n := tab.Delete(func(r types.Row) bool { return false }); n != 0 {
		t.Errorf("no-op delete removed %d", n)
	}
	tab.Truncate()
	if tab.Len() != 0 {
		t.Error("Truncate left rows")
	}
	rows, _ = tab.Lookup("CompNo", types.NewInt(1))
	if len(rows) != 0 {
		t.Error("index not cleared by Truncate")
	}
}

func TestIndexLookupEqualsScan(t *testing.T) {
	tab := newCompTable(t)
	unindexed, err := tab.Lookup("Name", types.NewString("bolt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("Name"); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex("name") {
		t.Error("HasIndex(name) = false")
	}
	indexed, err := tab.Lookup("Name", types.NewString("bolt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != len(unindexed) || len(indexed) != 1 {
		t.Errorf("indexed=%v unindexed=%v", indexed, unindexed)
	}
	// Index on an unknown column fails; duplicate creation is a no-op.
	if err := tab.CreateIndex("nope"); err == nil {
		t.Error("index on unknown column accepted")
	}
	if err := tab.CreateIndex("Name"); err != nil {
		t.Errorf("re-creating index: %v", err)
	}
	if _, err := tab.Lookup("nope", types.NewInt(1)); err == nil {
		t.Error("lookup on unknown column accepted")
	}
}

func TestIndexMaintainedOnUpdateInsert(t *testing.T) {
	tab := newCompTable(t)
	if err := tab.CreateIndex("Qty"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Update(
		func(r types.Row) bool { return r[0].Int() == 1 },
		func(r types.Row) types.Row { r[2] = types.NewInt(42); return r },
	); err != nil {
		t.Fatal(err)
	}
	if rows, _ := tab.Lookup("Qty", types.NewInt(100)); len(rows) != 0 {
		t.Errorf("stale index entry: %v", rows)
	}
	if rows, _ := tab.Lookup("Qty", types.NewInt(42)); len(rows) != 1 {
		t.Errorf("missing index entry: %v", rows)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if _, err := s.Create("a", compSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("A", compSchema()); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	if _, err := s.Create("b", compSchema()); err != nil {
		t.Fatal(err)
	}
	if got := s.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	if _, err := s.Get("A"); err != nil {
		t.Errorf("Get case-insensitive: %v", err)
	}
	if err := s.Drop("a"); err != nil {
		t.Errorf("Drop: %v", err)
	}
	if err := s.Drop("a"); err == nil {
		t.Error("double drop accepted")
	}
	if _, err := s.Get("a"); err == nil {
		t.Error("Get after drop succeeded")
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	tab, err := NewTable("c", types.Schema{{Name: "N", Type: types.Integer}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("N"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := tab.Insert(types.Row{types.NewInt(int64(g*100 + i))}); err != nil {
					t.Error(err)
					return
				}
				tab.Scan()
				if _, err := tab.Lookup("N", types.NewInt(int64(g*100+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != 800 {
		t.Errorf("Len = %d, want 800", tab.Len())
	}
}

// Property: after a random sequence of inserts and deletes, an index
// lookup agrees with a full scan for every key.
// checkIndexes verifies the structural invariants of every index: each row
// is filed exactly once, under its own hash, at its own position; buckets
// are ascending and never empty.
func checkIndexes(t *Table) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for col, idx := range t.indexes {
		filed := 0
		for h, bucket := range idx.buckets {
			if len(bucket) == 0 {
				return fmt.Errorf("index %s: empty bucket %x", col, h)
			}
			for i, pos := range bucket {
				if i > 0 && bucket[i-1] >= pos {
					return fmt.Errorf("index %s: bucket %v not ascending", col, bucket)
				}
				if pos < 0 || pos >= len(t.rows) || t.rows[pos][idx.column].Hash() != h {
					return fmt.Errorf("index %s: position %d misfiled under %x", col, pos, h)
				}
			}
			filed += len(bucket)
		}
		if filed != len(t.rows) {
			return fmt.Errorf("index %s files %d positions for %d rows", col, filed, len(t.rows))
		}
	}
	return nil
}

// TestIndexScanAgreementProperty drives an indexed table and an unindexed
// twin through the same random inserts, key-changing updates and deletes —
// scanned and keyed — and requires the same counts, the same heap
// (insertion order minus deleted rows), and Lookup equal to a scan, row for
// row and in order.
func TestIndexScanAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		schema := types.Schema{
			{Name: "K", Type: types.Integer},
			{Name: "V", Type: types.VarChar},
		}
		tab, err := NewTable("p", schema)
		if err != nil {
			return false
		}
		twin, _ := NewTable("twin", schema)
		if err := tab.CreateIndex("K"); err != nil {
			return false
		}
		for i := 0; i < 300; i++ {
			k := int64(r.Intn(20))
			key := types.NewInt(k)
			is := func(row types.Row) bool { return row[0].Int() == k }
			bump := func(row types.Row) types.Row { row[0] = types.NewInt((k + 7) % 20); return row }
			var n, m int
			switch r.Intn(7) {
			case 0, 1, 2:
				row := types.Row{key, types.NewString(fmt.Sprint(i))}
				if tab.Insert(row) != nil || twin.Insert(row) != nil {
					return false
				}
			case 3:
				n, m = tab.Delete(is), twin.Delete(is)
			case 4:
				n, m = tab.DeleteKey("K", key, is), twin.DeleteKey("K", key, is)
			case 5:
				n, _ = tab.Update(is, bump)
				m, _ = twin.Update(is, bump)
			case 6:
				n, _ = tab.UpdateKey("K", key, is, bump)
				m, _ = twin.UpdateKey("K", key, is, bump)
			}
			if n != m {
				t.Logf("op %d: %d rows on the indexed table, %d on the twin", i, n, m)
				return false
			}
			if err := checkIndexes(tab); err != nil {
				t.Logf("op %d: %v", i, err)
				return false
			}
		}
		sameRows := func(a, b []types.Row) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if !a[i].Equal(b[i]) {
					return false
				}
			}
			return true
		}
		if !sameRows(tab.Scan(), twin.Scan()) {
			return false
		}
		for k := int64(0); k < 20; k++ {
			viaIndex, err := tab.Lookup("K", types.NewInt(k))
			if err != nil {
				return false
			}
			if !sameRows(viaIndex, twin.Select(func(row types.Row) bool { return row[0].Int() == k })) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Without the per-delete rebuild nothing sweeps the bucket map, so a bucket
// that empties must leave it: a table whose keys only ever grow (a queue, a
// log with retention) would otherwise keep one entry per key it ever held.
func TestEmptyBucketsLeaveTheIndex(t *testing.T) {
	tab := newCompTable(t)
	if err := tab.CreateIndex("CompNo"); err != nil {
		t.Fatal(err)
	}
	for k := int64(100); k < 1100; k++ {
		if err := tab.Insert(types.Row{types.NewInt(k), types.NewString("x"), types.NewInt(0)}); err != nil {
			t.Fatal(err)
		}
		key := types.NewInt(k)
		if k%2 == 0 {
			// A key-changing update vacates its bucket too.
			if _, err := tab.UpdateKey("CompNo", key,
				func(r types.Row) bool { return r[0].Int() == k },
				func(r types.Row) types.Row { r[0] = types.NewInt(-k); return r }); err != nil {
				t.Fatal(err)
			}
			key = types.NewInt(-k)
		}
		if n := tab.DeleteKey("CompNo", key, func(r types.Row) bool { return r[0].Equal(key) }); n != 1 {
			t.Fatalf("delete %v removed %d rows", key, n)
		}
	}
	if got := len(tab.indexes["compno"].buckets); got != tab.Len() {
		t.Errorf("%d buckets for %d rows with distinct keys", got, tab.Len())
	}
	if err := checkIndexes(tab); err != nil {
		t.Error(err)
	}
}

// Delete compacts the heap in place; the slots it vacates past the new
// length must not keep the moved rows reachable.
func TestDeleteClearsVacatedTail(t *testing.T) {
	tab := newCompTable(t)
	if n := tab.Delete(func(r types.Row) bool { return r[0].Int() != 2 }); n != 2 {
		t.Fatalf("deleted %d rows, want 2", n)
	}
	tail := tab.rows[len(tab.rows):cap(tab.rows)]
	if len(tail) < 2 {
		t.Fatalf("expected the heap to keep its capacity, tail is %d", len(tail))
	}
	for i, r := range tail {
		if r != nil {
			t.Errorf("vacated slot %d still holds %v", len(tab.rows)+i, r)
		}
	}
}

package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/exec/batcher"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// batchFnTableFunc is a catalog.BatchTableFunc recording every batch it
// receives, so tests can assert how many wire rows actually travelled.
type batchFnTableFunc struct {
	fnTableFunc
	err error // when set, every InvokeBatch fails the whole batch

	mu      sync.Mutex
	batches [][][]types.Value
}

func (f *batchFnTableFunc) InvokeBatch(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
	cp := make([][]types.Value, len(rows))
	copy(cp, rows)
	f.mu.Lock()
	f.batches = append(f.batches, cp)
	f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	out := make([]*types.Table, len(rows))
	for i, r := range rows {
		tab, err := f.fn(r)
		if err != nil {
			return nil, err
		}
		out[i] = tab
	}
	return out, nil
}

// batchSizes flattens the recorded batches to their row counts.
func (f *batchFnTableFunc) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.batches))
	for i, b := range f.batches {
		out[i] = len(b)
	}
	return out
}

func lateralSchema() types.Schema {
	return types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}}
}

func TestApplyBatchedMatchesPerRow(t *testing.T) {
	left := intRows(seqInts(10)...)
	mk := func(fn catalog.TableFunc, pol batcher.Policy) Operator {
		return &Apply{
			Left:  &Values{Sch: intSchema("l"), Rows: left},
			Right: &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
			Sch:   lateralSchema(),
			Batch: pol,
		}
	}
	want := runAll(t, mk(&fnTableFunc{name: "F", fn: fanOut}, batcher.Policy{}))
	bf := &batchFnTableFunc{fnTableFunc: fnTableFunc{name: "F", fn: fanOut}}
	got := runAll(t, mk(bf, batcher.Policy{Count: 4}))
	if got.String() != want.String() {
		t.Fatalf("batched mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	sizes := bf.batchSizes()
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Errorf("batch sizes = %v, want [4 4 2]", sizes)
	}
}

func TestLeftApplyBatchedMatchesPerRow(t *testing.T) {
	left := intRows(seqInts(12)...)
	// fanOut leaves every l%3==0 row unmatched; the filter drops more.
	on := &Bin{Op: ">", L: Col{Idx: 0, Name: "l"}, R: Const{V: types.NewInt(3)}}
	mk := func(fn catalog.TableFunc, pol batcher.Policy) Operator {
		return &Apply{
			Left:  &Values{Sch: intSchema("l"), Rows: left},
			Right: &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
			On:    on,
			Outer: true,
			Sch:   lateralSchema(),
			Batch: pol,
		}
	}
	want := runAll(t, mk(&fnTableFunc{name: "F", fn: fanOut}, batcher.Policy{}))
	bf := &batchFnTableFunc{fnTableFunc: fnTableFunc{name: "F", fn: fanOut}}
	got := runAll(t, mk(bf, batcher.Policy{Count: 5}))
	if got.String() != want.String() {
		t.Fatalf("batched mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestParallelApplyBatchedMatchesSequential(t *testing.T) {
	left := intRows(seqInts(16)...)
	seq := &Apply{
		Left:  &Values{Sch: intSchema("l"), Rows: left},
		Right: &FuncScan{Fn: &fnTableFunc{name: "F", fn: fanOut}, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   lateralSchema(),
	}
	want := runAll(t, seq)
	for _, dop := range []int{1, 2, 4} {
		bf := &batchFnTableFunc{fnTableFunc: fnTableFunc{name: "F", fn: fanOut}}
		par := &Apply{
			Left:  &Values{Sch: intSchema("l"), Rows: left},
			Right: &FuncScan{Fn: bf, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
			Sch:   lateralSchema(),
			DOP:   dop,
			Batch: batcher.Policy{Count: 3},
		}
		got := runAll(t, par)
		if got.String() != want.String() {
			t.Fatalf("dop=%d batched mismatch:\ngot:\n%s\nwant:\n%s", dop, got, want)
		}
		for _, n := range bf.batchSizes() {
			if n > 3 {
				t.Errorf("dop=%d: batch of %d rows exceeds policy", dop, n)
			}
		}
	}
}

func TestBatchedCacheServesHitsWithoutWire(t *testing.T) {
	fc := NewFuncCache()
	warm := func(v int64) *types.Table {
		tab, err := fc.Invoke("F", []types.Value{types.NewInt(v)}, func() (*types.Table, error) {
			return fanOut([]types.Value{types.NewInt(v)})
		})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	warm(7) // 7%3 = 1 row
	warm(8) // 8%3 = 2 rows

	bf := &batchFnTableFunc{fnTableFunc: fnTableFunc{name: "F", fn: fanOut}}
	ap := &Apply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(7, 1, 8, 2)},
		Right: &FuncScan{Fn: bf, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   lateralSchema(),
		Batch: batcher.Policy{Count: 8},
	}
	tab, err := Run(ap, &Ctx{Task: simlat.Free(), FuncCache: fc})
	if err != nil {
		t.Fatal(err)
	}
	// 7 -> 1 row, 1 -> 1 row, 8 -> 2 rows, 2 -> 2 rows.
	if tab.Len() != 6 {
		t.Fatalf("got %d rows, want 6:\n%s", tab.Len(), tab)
	}
	// Only the cold keys 1 and 2 may travel; the warmed 7 and 8 are served
	// from the cache without joining the flush.
	if len(bf.batches) != 1 || len(bf.batches[0]) != 2 {
		t.Fatalf("wire batches = %v, want one batch of the 2 cold keys", bf.batches)
	}
	if bf.batches[0][0][0].Int() != 1 || bf.batches[0][1][0].Int() != 2 {
		t.Errorf("wire rows = %v, want keys 1 and 2", bf.batches[0])
	}
	if st := fc.Snapshot(); st.Hits != 2 || st.Misses != 4 || st.Coalesced != 0 {
		t.Errorf("stats = %+v, want 2 hits (warm keys), 4 misses (2 warmup + 2 cold)", st)
	}
}

func TestBatchedDuplicateKeysCoalesceToOneWireRow(t *testing.T) {
	fc := NewFuncCache()
	bf := &batchFnTableFunc{fnTableFunc: fnTableFunc{name: "F", fn: fanOut}}
	ap := &Apply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(5, 5, 5, 7)},
		Right: &FuncScan{Fn: bf, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   lateralSchema(),
		Batch: batcher.Policy{Count: 8},
	}
	tab, err := Run(ap, &Ctx{Task: simlat.Free(), FuncCache: fc})
	if err != nil {
		t.Fatal(err)
	}
	// 5 -> 2 rows each (x3 outer), 7 -> 1 row.
	if tab.Len() != 7 {
		t.Fatalf("got %d rows, want 7:\n%s", tab.Len(), tab)
	}
	if len(bf.batches) != 1 || len(bf.batches[0]) != 2 {
		t.Fatalf("wire batches = %v, want one batch with the 2 distinct keys", bf.batches)
	}
	if st := fc.Snapshot(); st.Misses != 2 || st.Coalesced != 2 {
		t.Errorf("stats = %+v, want 2 misses and 2 coalesced duplicates", st)
	}
}

func TestParallelBatchedSharedCacheInvokesEachKeyOnce(t *testing.T) {
	// 16 outer rows over only 4 distinct keys, DOP 4, shared cache: every
	// key must travel exactly once across all workers' batches.
	var rows []int64
	for i := int64(0); i < 16; i++ {
		rows = append(rows, i%4+1)
	}
	fc := NewFuncCache()
	bf := &batchFnTableFunc{fnTableFunc: fnTableFunc{name: "F", fn: fanOut}}
	par := &Apply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(rows...)},
		Right: &FuncScan{Fn: bf, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   lateralSchema(),
		DOP:   4,
		Batch: batcher.Policy{Count: 2},
	}
	tab, err := Run(par, &Ctx{Task: simlat.Free(), FuncCache: fc})
	if err != nil {
		t.Fatal(err)
	}
	// fanOut: 1->1, 2->2, 3->0, 4->1 rows, four outer rows per key.
	if tab.Len() != 16 {
		t.Fatalf("got %d rows, want 16:\n%s", tab.Len(), tab)
	}
	wire := 0
	for _, n := range bf.batchSizes() {
		wire += n
	}
	if wire != 4 {
		t.Errorf("%d wire rows across batches, want 4 (one per distinct key)", wire)
	}
	if st := fc.Snapshot(); st.Misses != 4 || st.Hits+st.Coalesced != 12 {
		t.Errorf("stats = %+v, want 4 misses and 12 hits+coalesced", st)
	}
}

func TestLeftApplyBatchedDegradePadsChunk(t *testing.T) {
	bf := &batchFnTableFunc{
		fnTableFunc: fnTableFunc{name: "F", fn: fanOut},
		err:         resil.ErrAppSysUnavailable,
	}
	la := &Apply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(1, 2, 3)},
		Right: &FuncScan{Fn: bf, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   lateralSchema(),
		Outer: true,
		Batch: batcher.Policy{Count: 8},
	}
	warns := &Warnings{}
	tab, err := Run(la, &Ctx{Task: simlat.Free(), AllowDegraded: true, Warnings: warns})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("got %d rows, want the whole chunk NULL-padded:\n%s", tab.Len(), tab)
	}
	for i, r := range tab.Rows {
		if !r[1].IsNull() {
			t.Errorf("row %d = %v, want NULL pad", i, r)
		}
	}
	if !warns.Partial() {
		t.Error("degraded chunk did not mark the result partial")
	}

	// Without AllowDegraded the same failure fails the statement.
	la2 := &Apply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(1, 2, 3)},
		Right: &FuncScan{Fn: bf, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Sch:   lateralSchema(),
		Outer: true,
		Batch: batcher.Policy{Count: 8},
	}
	if _, err := Run(la2, &Ctx{Task: simlat.Free()}); !errors.Is(err, resil.ErrAppSysUnavailable) {
		t.Fatalf("err = %v, want ErrAppSysUnavailable", err)
	}
}

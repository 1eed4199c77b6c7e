package exec

import (
	"strings"
	"testing"
	"time"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func analyzeLateral(t *testing.T, dop int, cache bool, costs time.Duration) (string, Operator) {
	t.Helper()
	scan := &FuncScan{
		Fn:   &taskFnTableFunc{name: "F", cost: costs, fn: fanOut},
		Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y"),
	}
	leftOp := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(16)...)}
	sch := types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}}
	var op Operator
	if dop > 1 {
		op = &Apply{Left: leftOp, Right: scan, Sch: sch, DOP: dop}
	} else {
		op = &Apply{Left: leftOp, Right: scan, Sch: sch}
	}
	ctx := &Ctx{Task: simlat.NewVirtualTask()}
	if cache {
		ctx.FuncCache = NewFuncCache()
	}
	tab, root, err := RunAnalyze(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// fanOut yields l%3 rows per outer row: 16 outer rows -> 15 rows total.
	if tab.Len() != 15 {
		t.Fatalf("result rows = %d, want 15", tab.Len())
	}
	return ExplainAnalyzeString(root), root
}

func TestAnalyzeCountsRowsAndLoops(t *testing.T) {
	out, root := analyzeLateral(t, 1, false, 0)
	an, ok := root.(*Analyzed)
	if !ok {
		t.Fatalf("root not Analyzed: %T", root)
	}
	if an.Stats.Rows.Load() != 15 || an.Stats.Opens.Load() != 1 {
		t.Errorf("root stats rows=%d loops=%d", an.Stats.Rows.Load(), an.Stats.Opens.Load())
	}
	// The lateral right side opens once per outer row.
	if !strings.Contains(out, "loops=16") {
		t.Errorf("FuncScan loop count missing:\n%s", out)
	}
	if !strings.Contains(out, "(actual rows=15 loops=1") {
		t.Errorf("root actuals missing:\n%s", out)
	}
}

func TestAnalyzeDeterministicInVirtualMode(t *testing.T) {
	a, _ := analyzeLateral(t, 1, false, 10*simlat.PaperMS)
	b, _ := analyzeLateral(t, 1, false, 10*simlat.PaperMS)
	if a != b {
		t.Errorf("virtual-mode EXPLAIN ANALYZE not deterministic:\n%s\nvs\n%s", a, b)
	}
	// Sequential: 16 invocations at 10ms charge 160ms on the scan node.
	if !strings.Contains(a, "time=160.0ms") {
		t.Errorf("scan busy time missing:\n%s", a)
	}
}

func TestAnalyzeParallelWorkerUtilization(t *testing.T) {
	out, root := analyzeLateral(t, 4, false, 10*simlat.PaperMS)
	var pa *Apply
	var find func(o Operator)
	find = func(o Operator) {
		if p, ok := o.(*Apply); ok {
			pa = p
			return
		}
		if an, ok := o.(*Analyzed); ok {
			find(an.Child)
			return
		}
		for _, c := range o.Children() {
			find(c)
		}
	}
	find(root)
	if pa == nil || pa.Stats == nil {
		t.Fatal("parallel Apply stats not wired")
	}
	ws := pa.Stats.Workers()
	if len(ws) != 4 {
		t.Fatalf("worker count = %d, want 4", len(ws))
	}
	// Static round-robin over 16 rows at 10ms each: every worker does
	// exactly 4 rows = 40ms, deterministically.
	for i, d := range ws {
		if d != 40*simlat.PaperMS {
			t.Errorf("worker %d utilization = %v, want 40ms", i, d)
		}
	}
	if !strings.Contains(out, "workers[w0=40.0ms w1=40.0ms w2=40.0ms w3=40.0ms]") {
		t.Errorf("per-worker rendering missing:\n%s", out)
	}
}

func TestAnalyzeCacheOutcomesPerOperator(t *testing.T) {
	// Duplicate arguments through a sequential lateral with the cache on:
	// 16 outer rows over 8 distinct keys -> 8 misses, 8 hits on the scan.
	scan := &FuncScan{
		Fn:   &fnTableFunc{name: "F", fn: fanOut},
		Args: []Expr{&Bin{Op: "%", L: Col{Idx: 0, Name: "l"}, R: Const{V: types.NewInt(8)}}},
		Sch:  intSchema("y"),
	}
	leftOp := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(16)...)}
	sch := types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}}
	op := &Apply{Left: leftOp, Right: scan, Sch: sch}
	ctx := &Ctx{Task: simlat.NewVirtualTask(), FuncCache: NewFuncCache()}
	_, root, err := RunAnalyze(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Stats == nil {
		t.Fatal("FuncScan stats not wired")
	}
	h, m, c := scan.Stats.CacheHits.Load(), scan.Stats.CacheMisses.Load(), scan.Stats.CacheCoalesced.Load()
	if h != 8 || m != 8 || c != 0 {
		t.Errorf("cache outcomes hits=%d misses=%d coalesced=%d, want 8/8/0", h, m, c)
	}
	if !strings.Contains(ExplainAnalyzeString(root), "cache(hits=8 misses=8 coalesced=0)") {
		t.Errorf("cache rendering missing:\n%s", ExplainAnalyzeString(root))
	}
}

func TestDrainCounts(t *testing.T) {
	op := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(5)...)}
	n, err := Drain(op, &Ctx{Task: simlat.Free()})
	if err != nil || n != 5 {
		t.Errorf("Drain = %d, %v", n, err)
	}
}

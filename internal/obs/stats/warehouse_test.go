package stats

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
)

func TestWarehouseAggregatesByFingerprint(t *testing.T) {
	w := NewWarehouse(Options{})
	ctx, c := obs.WithStmtCounters(context.Background())
	if got := obs.FromContext(ctx); got != c {
		t.Fatal("FromContext must return the installed counters")
	}
	c.AddRPC()
	c.AddRPC()
	c.AddInstance()
	c.AddBatch(3, 4)
	for i := 0; i < 3; i++ {
		w.RecordStatement(&obs.Statement{
			SQL:       fmt.Sprintf("SELECT Q FROM TABLE (F('s%d')) AS Q", i),
			Arch:      "wfms",
			Paper:     time.Duration(10+i) * time.Millisecond,
			Rows:      2,
			CacheHits: 1,
			Counters:  c.Snapshot(),
			Calls:     []obs.FedCall{{Fn: "F", Elapsed: 5 * time.Millisecond}},
		})
	}
	stmts := w.Statements()
	if len(stmts) != 1 {
		t.Fatalf("got %d fingerprints, want 1 (literals must coalesce)", len(stmts))
	}
	s := stmts[0]
	if s.Calls != 3 || s.Rows != 6 || s.CacheHits != 3 {
		t.Errorf("calls/rows/hits = %d/%d/%d, want 3/6/3", s.Calls, s.Rows, s.CacheHits)
	}
	if s.RPCs != 6 || s.Instances != 3 {
		t.Errorf("rpcs/instances = %d/%d, want 6/3 (counters folded per call)", s.RPCs, s.Instances)
	}
	if s.BatchCalls != 3 || s.BatchFill != 0.75 {
		t.Errorf("batch calls/fill = %d/%v, want 3/0.75", s.BatchCalls, s.BatchFill)
	}
	if s.TotalMS != 33 {
		t.Errorf("total = %v ms, want 33 (exact duration sum)", s.TotalMS)
	}
	if !strings.Contains(s.Query, "f(?)") {
		t.Errorf("query %q not literal-normalized", s.Query)
	}
	funcs := w.Functions()
	if len(funcs) != 1 || funcs[0].Calls != 3 || funcs[0].TotalMS != 15 {
		t.Errorf("functions = %+v, want F with 3 calls / 15 ms", funcs)
	}
	tot := w.Totals()
	if tot.Statements != 3 || tot.RPCs != 6 || tot.Instances != 3 || tot.Paper != 33*time.Millisecond {
		t.Errorf("totals = %+v mismatch", tot)
	}
}

func TestWarehouseErrorClasses(t *testing.T) {
	w := NewWarehouse(Options{})
	for _, err := range []error{
		resil.ErrTimeout,
		resil.ErrCircuitOpen,
		&resil.AppSysError{System: "Purchasing", Transient: true, Err: fmt.Errorf("boom")},
		nil,
	} {
		w.RecordStatement(&obs.Statement{SQL: "SELECT 1", Class: ClassifyError(err), Paper: time.Millisecond})
	}
	s := w.Statements()[0]
	if s.Errors != 3 {
		t.Fatalf("errors = %d, want 3", s.Errors)
	}
	for _, class := range []string{"timeout", "circuit_open", "appsys_unavailable"} {
		if s.ErrorsByClass[class] != 1 {
			t.Errorf("class %q = %d, want 1", class, s.ErrorsByClass[class])
		}
	}
}

func TestWarehouseLRUEviction(t *testing.T) {
	w := NewWarehouse(Options{MaxStatements: 2})
	w.RecordStatement(&obs.Statement{SQL: "SELECT a FROM t"})
	w.RecordStatement(&obs.Statement{SQL: "SELECT b FROM t"})
	w.RecordStatement(&obs.Statement{SQL: "SELECT a FROM t"}) // refresh a
	w.RecordStatement(&obs.Statement{SQL: "SELECT c FROM t"}) // evicts b
	var queries []string
	for _, s := range w.Statements() {
		queries = append(queries, s.Query)
	}
	if len(queries) != 2 {
		t.Fatalf("live fingerprints = %d, want 2", len(queries))
	}
	for _, q := range queries {
		if q == "select b from t" {
			t.Errorf("coldest fingerprint %q survived eviction", q)
		}
	}
	if w.Totals().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", w.Totals().Evictions)
	}
}

func TestFuncObservationsWalksSpanTree(t *testing.T) {
	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "fdbs.exec")
	call := func(fn string, d time.Duration) {
		sp := obs.StartSpan(task, "udtf.call", obs.Attr{Key: "fn", Value: fn})
		task.Spend(d)
		sp.End(task)
	}
	call("GetSuppQual", 4*time.Millisecond)
	plan := obs.StartSpan(task, "plan")
	call("GetSuppQual", 6*time.Millisecond)
	call("CalcReqPos", time.Millisecond)
	plan.End(task)

	w := NewWarehouse(Options{})
	w.RecordStatement(&obs.Statement{SQL: "SELECT 1", Calls: obs.FedCalls(tr.Finish(), nil)})
	w.RecordStatement(&obs.Statement{SQL: "SELECT 1", Calls: []obs.FedCall{{Fn: "CalcReqPos", Elapsed: time.Millisecond}}})
	funcs := w.Functions()
	if len(funcs) != 2 {
		t.Fatalf("got %d functions, want 2", len(funcs))
	}
	// One sketch observation per statement: the mean of its calls.
	if f := funcs[0]; f.Function != "GetSuppQual" || f.Calls != 2 || f.Statements != 1 || f.TotalMS != 10 || f.P50MS != 5 {
		t.Errorf("GetSuppQual = %+v, want 2 calls in 1 statement, 10 ms, p50 5 ms", f)
	}
	if f := funcs[1]; f.Function != "CalcReqPos" || f.Calls != 2 || f.Statements != 2 || f.TotalMS != 2 {
		t.Errorf("CalcReqPos = %+v, want 2 calls in 2 statements, 2 ms", f)
	}
}

// TestWarehouseConcurrent exercises recording, snapshots, tables, and the
// attached registry under -race.
func TestWarehouseConcurrent(t *testing.T) {
	w := NewWarehouse(Options{MaxStatements: 8})
	reg := obs.NewRegistry()
	w.AttachMetrics(reg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.RecordStatement(&obs.Statement{
					SQL:      fmt.Sprintf("SELECT x%d FROM t WHERE k = %d", i%16, i),
					Paper:    time.Duration(i%7+1) * time.Millisecond,
					Rows:     1,
					Counters: obs.CounterSnapshot{RPCs: 1},
					Calls:    []obs.FedCall{{Fn: "F", Elapsed: time.Millisecond}},
				})
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = w.Statements()
				_ = w.Functions()
				_ = w.Totals()
				if _, err := w.StatementsTable(); err != nil {
					t.Error(err)
				}
				if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(w.Statements()); got > 8 {
		t.Errorf("live fingerprints = %d, want <= 8", got)
	}
}

func TestPlanStoreRecordLookupEvict(t *testing.T) {
	p := NewPlanStore(2)
	p.Record("PlanA", []OpActual{{Node: "FuncScan", Rows: 5, Loops: 1, Busy: time.Millisecond}})
	p.Record("PlanB", []OpActual{{Node: "TableScan", Rows: 9}})
	p.Record("PlanA", []OpActual{{Node: "FuncScan", Rows: 7, Loops: 1}})
	p.Record("PlanC", nil) // evicts PlanB
	a, ok := p.Lookup("PlanA")
	if !ok || a.Runs != 2 || a.Ops[0].Rows != 7 {
		t.Errorf("PlanA = %+v ok=%v, want 2 runs with latest rows 7", a, ok)
	}
	if _, ok := p.Lookup("PlanB"); ok {
		t.Error("PlanB survived eviction")
	}
	if _, ok := p.Lookup("PlanC"); !ok {
		t.Error("PlanC missing")
	}
}

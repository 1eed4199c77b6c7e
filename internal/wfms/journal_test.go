package wfms

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fedwf/internal/obs"
	"fedwf/internal/obs/journal"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func batchInputs(n int) []map[string]types.Value {
	in := make([]map[string]types.Value, n)
	for i := range in {
		in[i] = map[string]types.Value{"suppliername": types.NewString("Supplier" + string(rune('1'+i)))}
	}
	return in
}

// statementContext is a statement's context: the engine hands every
// instance it finishes to the counters the context carries.
func statementContext() (context.Context, *obs.StmtCounters) {
	return obs.WithStmtCounters(context.Background())
}

// journalStatement appends the finished statement the counters describe
// to a fresh journal, which writes its workflow events from the trail.
func journalStatement(cnt *obs.StmtCounters, task *simlat.Task) *journal.Journal {
	j := journal.New(journal.Options{Capacity: 256})
	j.AppendStatement(&obs.Statement{TraceID: "t1", Arch: "wfms", Paper: task.Elapsed(), Counters: cnt.Snapshot()}, "fp")
	return j
}

func eventsOf(j *journal.Journal, kind journal.Kind) []journal.Event {
	var out []journal.Event
	for _, e := range j.Snapshot() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestJournalInstanceAndActivityEvents(t *testing.T) {
	eng := New(testInvoker(t), testCosts())
	task := simlat.NewVirtualTask()
	ctx, cnt := statementContext()
	res, err := eng.RunDetailedContext(ctx, task, linearProcess(),
		map[string]types.Value{"suppliername": types.NewString("Supplier3")})
	if err != nil {
		t.Fatal(err)
	}
	j := journalStatement(cnt, task)

	inst := eventsOf(j, journal.KindInstance)
	if len(inst) != 1 {
		t.Fatalf("instance events = %d, want 1", len(inst))
	}
	ie := inst[0]
	if ie.Instance != "wf-000001" || ie.Func != "GetSuppQual" || ie.Batch != 1 {
		t.Fatalf("instance event = %+v", ie)
	}
	if ie.Activities != res.Activities || ie.Rows != res.Output.Len() {
		t.Fatalf("instance event counts = %+v, want activities %d rows %d", ie, res.Activities, res.Output.Len())
	}
	if ie.StartVT != 0 || ie.DurVT != task.Elapsed() || ie.TraceID != "t1" {
		t.Fatalf("instance event = %+v, want the statement's trace id, start 0 and duration %v", ie, task.Elapsed())
	}

	acts := eventsOf(j, journal.KindActivity)
	// Linear chain: one event per audit entry, in the run's sorted order,
	// all whole-instance scoped.
	if len(acts) != len(res.Audit) {
		t.Fatalf("activity events = %d, audit entries = %d", len(acts), len(res.Audit))
	}
	for i, a := range acts {
		if a.Instance != ie.Instance || a.TraceID != "t1" {
			t.Fatalf("activity not joinable to instance and statement: %+v", a)
		}
		if a.Row != -1 {
			t.Fatalf("non-batched activity has row index: %+v", a)
		}
		if ev := res.Audit[i]; a.Node != ev.Node || a.Detail != ev.Event || a.StartVT != ev.At || a.Rows != ev.Rows {
			t.Fatalf("activity event %d = %+v, audit entry %+v", i, a, ev)
		}
	}
	for _, ev := range res.Audit {
		if ev.Row != -1 {
			t.Fatalf("non-batched audit entry has row index: %+v", ev)
		}
	}
}

func TestJournalBatchRowAttributionVectorized(t *testing.T) {
	eng := New(testInvoker(t), testCosts())
	task := simlat.NewVirtualTask()
	ctx, cnt := statementContext()
	out, err := eng.RunBatchContext(ctx, task, linearProcess(), batchInputs(3))
	if err != nil {
		t.Fatal(err)
	}
	j := journalStatement(cnt, task)
	if len(out) != 3 {
		t.Fatalf("outputs = %d, want 3", len(out))
	}

	inst := eventsOf(j, journal.KindInstance)
	if len(inst) != 1 || inst[0].Batch != 3 {
		t.Fatalf("instance events = %+v, want one with Batch=3", inst)
	}

	// Vectorized run: per activity one whole-batch "started" (row -1) and
	// one "completed" per in-chunk row.
	rowsSeen := map[string]map[int]bool{}
	for _, a := range eventsOf(j, journal.KindActivity) {
		if a.Detail == "started" {
			if a.Row != -1 {
				t.Fatalf("batch started event has row index: %+v", a)
			}
			continue
		}
		m := rowsSeen[a.Node]
		if m == nil {
			m = map[int]bool{}
			rowsSeen[a.Node] = m
		}
		m[a.Row] = true
	}
	for _, node := range []string{"GSN", "GQ"} {
		for row := 0; row < 3; row++ {
			if !rowsSeen[node][row] {
				t.Fatalf("node %s missing completion for row %d: %v", node, row, rowsSeen)
			}
		}
	}
}

func TestJournalBatchRowAttributionFallback(t *testing.T) {
	// A conditional connector defeats vectorization, forcing the
	// navigator-fallback loop — rows must still be attributable.
	p := linearProcess()
	p.Flow[0].Condition = func(*types.Table) (bool, error) { return true, nil }

	eng := New(testInvoker(t), testCosts())
	task := simlat.NewVirtualTask()
	ctx, cnt := statementContext()
	out, err := eng.RunBatchContext(ctx, task, p, batchInputs(2))
	if err != nil {
		t.Fatal(err)
	}
	j := journalStatement(cnt, task)
	if len(out) != 2 {
		t.Fatalf("outputs = %d, want 2", len(out))
	}
	perRow := map[int]int{}
	for _, a := range eventsOf(j, journal.KindActivity) {
		perRow[a.Row]++
	}
	// Each of the two rows drove a full navigator pass (started+completed
	// per node); nothing may remain unattributed.
	if perRow[-1] != 0 || perRow[0] == 0 || perRow[1] == 0 {
		t.Fatalf("fallback row attribution = %v", perRow)
	}
}

// TestFailedInstanceIsRecorded: an instance that fails is handed to its
// statement too, with the error, so the journal audits it.
func TestFailedInstanceIsRecorded(t *testing.T) {
	inv := InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
		return nil, errors.New("boom")
	})
	eng := New(inv, testCosts())
	task := simlat.NewVirtualTask()
	ctx, cnt := statementContext()
	if _, err := eng.RunContext(ctx, task, linearProcess(), map[string]types.Value{"suppliername": types.NewString("x")}); err == nil {
		t.Fatal("run succeeded")
	}
	inst := eventsOf(journalStatement(cnt, task), journal.KindInstance)
	if len(inst) != 1 || !strings.Contains(inst[0].Err, "boom") || inst[0].Rows != 0 {
		t.Fatalf("instance events = %+v, want one carrying the error", inst)
	}
}

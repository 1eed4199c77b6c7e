package fdbs

import (
	"context"
	"testing"

	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
)

// BenchmarkExecTraced/GetSuppQual's statement — one GetSuppQual call through
// ExecTracedContext, every store fed, probabilistic sampling off —
// allocated 190 times while each span kept its steps in a map beside an
// order slice and grew its attribute and child slices apart. With a span's
// steps, attributes and first child stored inline it allocated 142 times,
// and 127 once call results were shared under a fresh header and arguments
// and answers were cast copy-on-write instead of copied at every layer.
// The budget, that count and 2 %, keeps per-span allocations and per-call
// copies from coming back into the serving path unnoticed.
const execTracedAllocBudget = 130

// raceBuild is set by race_test.go on builds with the race detector.
var raceBuild bool

// The same statement through the SQL I-UDTF architecture allocated 156
// times while each call planned the I-UDTF's body afresh, with every
// argument in a map under two lower-cased names, and 128 once the body was
// planned once and each call ran a copy of that plan on its argument row.
// The budget is that count and 2 %.
const execTracedSQLAllocBudget = 130

func TestExecTracedAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, c := range []struct {
		arch   fedfunc.Arch
		budget int
	}{{fedfunc.ArchWfMS, execTracedAllocBudget}, {fedfunc.ArchUDTF, execTracedSQLAllocBudget}} {
		srv, err := NewServer(Config{Arch: c.arch, Trace: collector.Policy{SampleRate: -1}})
		if err != nil {
			t.Fatal(err)
		}
		const stmt = "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q"
		allocs := testing.AllocsPerRun(50, func() {
			res, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{})
			if err != nil || res.Len() != 1 {
				t.Fatalf("%s GetSuppQual statement: %v, %v", c.arch, res, err)
			}
		})
		t.Logf("%s GetSuppQual statement through ExecTracedContext: %.0f allocations", c.arch, allocs)
		if allocs > float64(c.budget) {
			t.Errorf("a traced %s GetSuppQual statement allocates %.0f times, budget %d", c.arch, allocs, c.budget)
		}
	}
}

// fedbench's lateral_batch statement — the 64 rows of drv through the
// workflow architecture in chunks of 8 at DOP 2, every trace kept —
// allocated 3 048 times while every layer copied the answers it passed on:
// the workflow output and the catalog's result casts copied each row and
// its schema, helper activities got a fresh container map and input table,
// and argument casts made a fresh slice per row. Sharing call results
// under a fresh header, casting copy-on-write and projecting lookups from
// one slab brought it to 1 631. That still allocated per outer row in
// every layer of the batch: each lookup made a snapshot slice, a cells
// slab and a table header; the compiled helper a scratch slice, a header,
// a result row and its row slice; the workflow output and the catalog's
// result casts a header each. Carving each chunk's answers in every layer
// from one slab, one row slice and one slice of headers — appsys's
// lookups, the compiled helper's rows through wfms.Containers.Answer, the
// workflow outputs and the catalog's casts — brought it to 975. The budget
// is that count and 2 %, so per-row allocations do not come back into the
// batch path unnoticed.
const lateralBatchAllocBudget = 995

func TestLateralBatchAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector adds allocations of its own")
	}
	srv := lateralServer(t)
	allocs := testing.AllocsPerRun(20, func() {
		res, _, err := srv.ExecTracedContext(context.Background(), lateralSQL, obs.TraceContext{})
		if err != nil || res.Len() != 64 {
			t.Fatalf("lateral_batch statement: %v, %v", res, err)
		}
	})
	t.Logf("lateral_batch statement through ExecTracedContext: %.0f allocations", allocs)
	if allocs > lateralBatchAllocBudget {
		t.Errorf("a traced lateral_batch statement allocates %.0f times, budget %d", allocs, lateralBatchAllocBudget)
	}
}

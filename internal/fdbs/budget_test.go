package fdbs

import (
	"context"
	"testing"

	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
)

// BenchmarkExecTraced's statement — one GetSuppQual call through
// ExecTracedContext, every store fed, probabilistic sampling off —
// allocated 190 times while each span kept its steps in a map beside an
// order slice and grew its attribute and child slices apart. With a span's
// steps, attributes and first child stored inline it allocates 142 times;
// the budget, that count and 2 %, keeps per-span allocations from coming
// back into the serving path unnoticed.
const execTracedAllocBudget = 144

// raceBuild is set by race_test.go on builds with the race detector.
var raceBuild bool

func TestExecTracedAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector adds allocations of its own")
	}
	srv, err := NewServer(Config{Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	const stmt = "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q"
	allocs := testing.AllocsPerRun(50, func() {
		res, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{})
		if err != nil || res.Len() != 1 {
			t.Fatalf("GetSuppQual statement: %v, %v", res, err)
		}
	})
	t.Logf("GetSuppQual statement through ExecTracedContext: %.0f allocations", allocs)
	if allocs > execTracedAllocBudget {
		t.Errorf("a traced GetSuppQual statement allocates %.0f times, budget %d", allocs, execTracedAllocBudget)
	}
}

package fdbs

import (
	"context"
	"fmt"
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
// The statement's envelope then took 94: its timings formatted into one
// string and its metadata map sized once, the trace ID hex-encoded from
// the stack, a known fingerprint and a known metric series found without
// building a string, the span's sql attribute the text as received, and
// the session opened on its meter.
// The budget, that count and 2 %, keeps per-span allocations, per-call
// copies and per-field envelope strings from coming back into the serving
// path unnoticed.
const execTracedAllocBudget = 96

// raceBuild is set by race_test.go on builds with the race detector.
var raceBuild bool

// The same statement through the SQL I-UDTF architecture allocated 156
// times while each call planned the I-UDTF's body afresh, with every
// argument in a map under two lower-cased names, and 128 once the body was
// planned once and each call ran a copy of that plan on its argument row.
// The envelope's cuts above took it to 95. The budget is that count and
// 2 %.
const execTracedSQLAllocBudget = 97

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
// workflow outputs and the catalog's casts — brought it to 975. The
// statement's envelope (see execTracedAllocBudget), above all the sql
// attribute no longer rendered from the parse, took it to 921. The budget
// is that count and 2 %, so per-row allocations do not come back into the
// batch path unnoticed.
const lateralBatchAllocBudget = 940

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

// fedbench's mixed_rw point SELECT and one-row UPDATE, served over
// loopback TCP, allocated 113 times each — client, wire and server
// together — while the statement's envelope made a string of every
// metadata key and value on the client, formatted each timing on its own,
// hex-encoded the trace ID through the heap, built strings to find a
// known fingerprint and a known metric series, opened its session on a
// meter it replaced at once and took a release closure for every admitted
// request. Without those they allocate 79 and 84. The budgets are those
// counts and 2 %.
const (
	loopbackSelectAllocBudget = 81
	loopbackUpdateAllocBudget = 86
)

// TestLoopbackAllocationBudget counts a whole served statement: a
// DialClient's Exec against a Listen-ing server in this process, so the
// count covers the client's encode and decode, both ends of the wire and
// the server's serving envelope as well as the statement.
func TestLoopbackAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector adds allocations of its own")
	}
	srv, err := NewServer(Config{Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const keys = 64
	if _, err := c.Exec(ctx, "CREATE TABLE kv (K INT PRIMARY KEY, V INT)"); err != nil {
		t.Fatal(err)
	}
	selects, updates := make([]string, keys), make([]string, keys)
	for k := range keys {
		if _, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", k)); err != nil {
			t.Fatal(err)
		}
		selects[k] = fmt.Sprintf("SELECT V FROM kv WHERE K = %d", k)
		updates[k] = fmt.Sprintf("UPDATE kv SET V = V + 1 WHERE K = %d", k)
	}
	for _, s := range []struct {
		name   string
		stmts  []string
		budget int
	}{{"point SELECT", selects, loopbackSelectAllocBudget}, {"one-row UPDATE", updates, loopbackUpdateAllocBudget}} {
		i := 0
		allocs := testing.AllocsPerRun(400, func() {
			res, err := c.Exec(ctx, s.stmts[i%keys])
			i++
			if err != nil || res.Table.Len() != 1 {
				t.Fatalf("%s: %v", s.name, err)
			}
		})
		t.Logf("mixed_rw %s over loopback: %.1f allocations, budget %d", s.name, allocs, s.budget)
		if allocs > float64(s.budget) {
			t.Errorf("a mixed_rw %s over loopback allocates %.1f times, budget %d", s.name, allocs, s.budget)
		}
	}
}

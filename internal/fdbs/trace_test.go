package fdbs

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/obs/journal"
	"fedwf/internal/rpc"
	"fedwf/internal/types"
)

// findSpan returns the first span named name in DFS order, or nil.
func findSpan(sp *obs.Span, name string) *obs.Span {
	if sp == nil {
		return nil
	}
	if sp.Name() == name {
		return sp
	}
	for _, c := range sp.Children() {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

// TestDaemonModeCrossProcessTrace is the acceptance test for distributed
// tracing: client, integration server, and application systems run as
// three "processes" (goroutine-hosted TCP servers), and one traced
// statement must yield a single trace whose grafted tree spans all four
// layers — engine, UDTF, controller, WfMS process/activity, and the
// application system behind its own wire.
func TestDaemonModeCrossProcessTrace(t *testing.T) {
	// Process 3: the application systems behind their own TCP endpoint.
	remoteApps, err := appsys.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	appsSrv := rpc.NewServer(remoteApps.Handler())
	appsAddr, err := appsSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer appsSrv.Close()
	appsClient, err := rpc.DialMux(appsAddr.String())
	if err != nil {
		t.Fatal(err)
	}

	// Process 2: the integration server, reaching the application systems
	// over TCP. Probabilistic retention off, slow threshold effectively
	// infinite: only forced and error traces are kept.
	srv, err := NewServer(Config{
		Arch:       fedfunc.ArchWfMS,
		AppsClient: appsClient,
		Trace:      collector.Policy{SampleRate: -1, LatencyThreshold: 24 * time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Process 1: the client.
	client, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := client.Exec(context.Background(), "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	tab, meta, root := res.Table, res.Meta, res.Trace
	if tab.Len() != 1 {
		t.Fatalf("traced query result:\n%s", tab)
	}
	traceID := meta[obs.MetaTraceID]
	if traceID == "" || meta["trace_retained"] != "1" {
		t.Fatalf("trace meta = %v", meta)
	}
	if root.TraceID() != traceID {
		t.Errorf("client root trace ID %q != server's %q", root.TraceID(), traceID)
	}

	rendered := obs.Render(root)
	for _, want := range []string{
		"client.exec", "rpc.call", "rpc.serve", "fdbs.exec", "engine.statement",
		"udtf.workflow", "controller.run-workflow", "wfms.process", "wfms.activity", "appsys.call",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("cross-process trace lacks %q:\n%s", want, rendered)
		}
	}
	// Parent/child linkage across both process boundaries: the engine's
	// statement span contains the workflow UDTF, which reaches the WfMS
	// through the controller; the WfMS activity's rpc.call contains the
	// remote appsys serve with the appsys.call under it.
	eng := findSpan(root, "engine.statement")
	if eng == nil || findSpan(eng, "udtf.workflow") == nil {
		t.Fatalf("engine.statement does not contain udtf.workflow:\n%s", rendered)
	}
	ctl := findSpan(eng, "controller.run-workflow")
	if ctl == nil || findSpan(ctl, "wfms.process") == nil {
		t.Fatalf("controller.run-workflow does not contain wfms.process:\n%s", rendered)
	}
	act := findSpan(ctl, "wfms.activity")
	if act == nil {
		t.Fatalf("wfms.process has no activity:\n%s", rendered)
	}
	hop := findSpan(act, "rpc.call")
	if hop == nil || findSpan(hop, "rpc.serve") == nil || findSpan(hop, "appsys.call") == nil {
		t.Fatalf("appsys hop not grafted under the activity:\n%s", rendered)
	}

	// One unit across both process boundaries: every span lies inside its
	// parent, the client root spans exactly the statement's paper time,
	// and the wall durations ride as attributes.
	checkNested(t, root, rendered)
	paperNS, err := strconv.ParseInt(meta["paper_ns"], 10, 64)
	if err != nil || paperNS <= 0 {
		t.Fatalf("paper_ns = %q", meta["paper_ns"])
	}
	if got := root.Elapsed(); got != time.Duration(paperNS) {
		t.Errorf("client.exec elapsed = %v, statement paper time = %v:\n%s", got, time.Duration(paperNS), rendered)
	}
	for _, sp := range append([]*obs.Span{root}, findSpans(root, "rpc.serve")...) {
		if !hasAttr(sp, "wall_ms") {
			t.Errorf("%s at +%v lacks wall_ms: %v", sp.Name(), sp.Start(), sp.Attrs())
		}
	}

	// The server retained the forced trace; fed_traces lists it and
	// fed_spans holds its tree, read over the same client protocol.
	if srv.Collector().Get(traceID) == nil {
		t.Fatal("forced trace not in the collector")
	}
	listed, err := client.Exec(context.Background(), "SELECT Trace, Forced, Spans FROM fed_traces WHERE Trace = "+quote(traceID))
	if err != nil {
		t.Fatal(err)
	}
	if listed.Table.Len() != 1 || !listed.Table.Rows[0][1].Bool() || listed.Table.Rows[0][2].Int() == 0 {
		t.Errorf("fed_traces row:\n%s", listed.Table)
	}
	spans, err := client.Exec(context.Background(), TraceSpansQuery(traceID))
	if err != nil {
		t.Fatal(err)
	}
	body := spans.Table.String()
	for _, want := range []string{"fdbs.exec", "wfms.activity", "appsys.call"} {
		if !strings.Contains(body, want) {
			t.Errorf("fed_spans of the trace lack %q:\n%s", want, body)
		}
	}

	// Tail sampling: an error-injected statement is always retained, even
	// though the client did not request tracing…
	if _, err := client.Exec(context.Background(), "SELECT nonsense FROM nowhere"); err == nil {
		t.Fatal("bad statement accepted")
	}
	errs, err := client.Exec(context.Background(), "SELECT Trace, Err FROM fed_traces WHERE Err <> ''")
	if err != nil {
		t.Fatal(err)
	}
	if errs.Table.Len() != 1 {
		t.Fatalf("error trace not retained:\n%s", errs.Table)
	}
	if findData(srv.Collector().Get(errs.Table.Rows[0][0].Str()).Root, "fdbs.exec") == nil {
		t.Error("error trace has no span tree")
	}
	// …while a fast healthy untraced statement is dropped under rate -1.
	res2, err := client.Exec(context.Background(), "SHOW FUNCTIONS")
	if err != nil {
		t.Fatal(err)
	}
	meta2 := res2.Meta
	if meta2["trace_retained"] == "1" {
		t.Error("fast healthy trace retained with sampling off")
	}
	if srv.Collector().Get(meta2[obs.MetaTraceID]) != nil {
		t.Error("dropped trace still stored")
	}
}

// TestSampledStatementTreeMatchesFedSpans: a sampled statement over TCP
// arrives as one fragment, and the subtree the client grafts below rpc.serve
// is the tree the server retained, row for row in fed_spans; the trace is
// retained once.
func TestSampledStatementTreeMatchesFedSpans(t *testing.T) {
	srv, err := NewServer(Config{Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := client.Exec(context.Background(), "SELECT N.Number FROM TABLE (GetNoSuppComp('Supplier1', 'nut')) AS N", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	id := res.Meta[obs.MetaTraceID]
	serve := findSpan(res.Trace, "rpc.serve")
	if serve == nil || len(serve.Children()) != 1 || serve.Children()[0].Name() != "fdbs.exec" {
		t.Fatalf("no fdbs.exec grafted below rpc.serve:\n%s", obs.Render(res.Trace))
	}
	spans, err := SpansTable(srv.Collector())
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for _, r := range spans.Rows {
		if r[0].Str() == id {
			rows = append(rows, r)
		}
	}
	// Names, attributes and steps; the instants are the client's, shifted
	// by rpc.call's start.
	var want strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&want, "%d %s [%s] [%s]\n", r[3].Int(), r[4].Str(), r[7].Str(), r[8].Str())
	}
	var got strings.Builder
	var walk func(d *obs.SpanData, depth int)
	walk = func(d *obs.SpanData, depth int) {
		attrs := make([]string, len(d.Attrs))
		for i, a := range d.Attrs {
			attrs[i] = a.String()
		}
		fmt.Fprintf(&got, "%d %s [%s] [%s]\n", depth, d.Name, strings.Join(attrs, " "), obs.FormatSteps(d.Steps))
		for _, c := range d.Children {
			walk(c, depth+1)
		}
	}
	walk(obs.SnapshotSpan(serve.Children()[0]), 0)
	if len(rows) < 5 || got.String() != want.String() {
		t.Errorf("client subtree:\n%s\nfed_spans rows of %s:\n%s", got.String(), id, want.String())
	}
	traces, err := TracesTable(srv.Collector())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range traces.Rows {
		if r[0].Str() == id {
			n++
		}
	}
	if n != 1 {
		t.Errorf("trace %s listed %d times in fed_traces, want once", id, n)
	}
}

// findSpans returns every span named name under sp, in DFS order.
func findSpans(sp *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	if sp.Name() == name {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// checkNested fails t for every span that starts before its parent or ends
// after it.
func checkNested(t *testing.T, sp *obs.Span, rendered string) {
	t.Helper()
	end := sp.Start() + sp.Elapsed()
	for _, c := range sp.Children() {
		if c.Start() < sp.Start() || c.Start()+c.Elapsed() > end {
			t.Errorf("%s [+%v, %v] is not inside %s [+%v, %v]:\n%s",
				c.Name(), c.Start(), c.Elapsed(), sp.Name(), sp.Start(), sp.Elapsed(), rendered)
		}
		checkNested(t, c, rendered)
	}
}

func hasAttr(sp *obs.Span, key string) bool {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return true
		}
	}
	return false
}

// findData is findSpan over the serialized form.
func findData(d *obs.SpanData, name string) *obs.SpanData {
	if d == nil {
		return nil
	}
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if got := findData(c, name); got != nil {
			return got
		}
	}
	return nil
}

// TestExecTracedInProcArch covers the UDTF architecture end to end over
// TCP with tracing on: the enhanced SQL UDTF path must show its own span
// names in the grafted tree.
func TestExecTracedUDTFArch(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF, Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := client.Exec(context.Background(), "SELECT * FROM TABLE (GetNoSuppComp('Supplier1', 'nut')) AS R", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	meta, root := res.Meta, res.Trace
	rendered := obs.Render(root)
	for _, want := range []string{"client.exec", "rpc.serve", "fdbs.exec", "udtf.sql", "udtf.access", "controller.call", "appsys.call"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("UDTF-arch trace lacks %q:\n%s", want, rendered)
		}
	}
	if meta[obs.MetaTraceID] == "" {
		t.Errorf("meta = %v", meta)
	}
}

// lateralSQL is the statement of fedbench's lateral_batch workload.
const lateralSQL = "SELECT d.SupplierNo, F.Qual, F.Relia FROM drv d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F WHERE d.SupplierNo >= 0"

// lateralServer is that workload's server: the 64 rows of drv go through the
// workflow architecture in chunks of 8 at DOP 2, and every trace is kept.
func lateralServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Config{Arch: fedfunc.ArchWfMS, Trace: collector.Policy{SampleRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Engine().SetParallelism(2)
	srv.Engine().SetBatchSize(8)
	if _, _, err := srv.ExecTracedContext(context.Background(), "CREATE TABLE drv (SupplierNo INT)", obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	drv, err := srv.Engine().Catalog().Table("drv")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := drv.Insert(types.Row{types.NewInt(int64(i%appsys.NumSuppliers + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestLateralBatchConcurrentStatements: four sessions run the lateral_batch
// statement at once. Each statement's two DOP workers drive chunks of 8
// through the same process template at the same time, and every layer
// carves a chunk's answers from a slab of that call, so every row must
// still carry its own supplier's quality and reliability. Run it under
// -race.
func TestLateralBatchConcurrentStatements(t *testing.T) {
	srv := lateralServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				res, _, err := srv.ExecTracedContext(context.Background(), lateralSQL, obs.TraceContext{})
				if err == nil && res.Len() != 64 {
					err = fmt.Errorf("%d rows, want 64", res.Len())
				}
				for i := 0; err == nil && i < res.Len(); i++ {
					r := res.Rows[i]
					no := int(r[0].Int())
					if int(r[1].Int()) != appsys.SupplierQuality(no) || int(r[2].Int()) != appsys.SupplierReliability(no) {
						err = fmt.Errorf("row %d = %v, want supplier %d's quality and reliability", i, r, no)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelTraceIsDeterministic: under DOP 2 the workers' spans open at
// the same virtual instant under the same name, so only their attributes
// can order them. Every warm run of the statement must retain the same
// tree and journal its federated calls in the same order.
func TestParallelTraceIsDeterministic(t *testing.T) {
	srv := lateralServer(t)
	run := func() (tree, calls string) {
		_, meta, err := srv.ExecTracedContext(context.Background(), lateralSQL, obs.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		id := meta[obs.MetaTraceID]
		tr := srv.Collector().Get(id)
		if tr == nil || tr.Root == nil {
			t.Fatalf("trace %s not retained", id)
		}
		b, err := json.Marshal(tr.Root)
		if err != nil {
			t.Fatal(err)
		}
		var base time.Duration
		var order strings.Builder
		for _, e := range srv.Journal().Snapshot() {
			switch {
			case e.TraceID != id:
			case e.Kind == journal.KindStatement:
				base = e.StartVT
			case e.Kind == journal.KindCall:
				fmt.Fprintf(&order, "%s@%d+%d ", e.Func, e.StartVT-base, e.DurVT)
			}
		}
		return string(b), order.String()
	}
	run() // warm
	trees, orders := map[string]int{}, map[string]int{}
	for i := 0; i < 200; i++ {
		tree, calls := run()
		trees[tree]++
		orders[calls]++
	}
	if len(trees) != 1 || len(orders) != 1 {
		t.Fatalf("200 runs retained %d distinct trees and journaled %d call orders, want 1 and 1", len(trees), len(orders))
	}
	for calls := range orders {
		if n := strings.Count(calls, "GetSuppQualRelia@"); n != 8 {
			t.Fatalf("%d federated calls journaled, want 8 (64 rows in chunks of 8): %s", n, calls)
		}
	}
}

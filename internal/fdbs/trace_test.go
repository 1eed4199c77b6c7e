package fdbs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/rpc"
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

	// The server retained the forced trace; /traces serves it both ways.
	if srv.Collector().Get(traceID) == nil {
		t.Fatal("forced trace not in the collector")
	}
	mux := obs.MetricsMux(srv.MetricsRegistry())
	srv.Collector().Register(mux)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	var sums []collector.Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 || !strings.Contains(rr.Body.String(), traceID) {
		t.Errorf("/traces listing:\n%s", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+traceID, nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "fdbs.exec") {
		t.Errorf("/traces/<id> JSON:\n%s", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+traceID+"?format=text", nil))
	body := rr.Body.String()
	for _, want := range []string{"waterfall total=", "wfms.activity", "appsys.call", "#"} {
		if !strings.Contains(body, want) {
			t.Errorf("text waterfall missing %q:\n%s", want, body)
		}
	}

	// Tail sampling: an error-injected statement is always retained, even
	// though the client did not request tracing…
	if _, err := client.Exec(context.Background(), "SELECT nonsense FROM nowhere"); err == nil {
		t.Fatal("bad statement accepted")
	}
	errs := srv.Collector().List(collector.Filter{ErrorsOnly: true})
	if len(errs) != 1 || errs[0].Error == "" {
		t.Fatalf("error trace not retained: %v", errs)
	}
	if findData(errs[0].Root, "fdbs.exec") == nil {
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

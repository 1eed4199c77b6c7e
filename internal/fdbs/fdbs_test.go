package fdbs

import (
	"context"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fedwf/internal/engine"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func TestIntegrationServerWfMS(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchWfMS})
	if err != nil {
		t.Fatal(err)
	}
	s := srv.Session()
	tab, err := s.QueryContext(context.Background(), "SELECT BSC.Decision FROM TABLE (BuySuppComp(4, 'washer')) AS BSC")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("decision:\n%s", tab)
	}
	if d := tab.Rows[0][0].Str(); d != "YES" && d != "NO" {
		t.Errorf("decision = %q", d)
	}
	if srv.Apps() == nil || srv.Stack() == nil || srv.Engine() == nil {
		t.Error("accessors returned nil")
	}
}

// TestFederatedFunctionCombinedWithLocalTable demonstrates the point of
// the whole architecture: one SQL statement mixing a federated function
// (application-system data) with an ordinary FDBS table.
func TestFederatedFunctionCombinedWithLocalTable(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF})
	if err != nil {
		t.Fatal(err)
	}
	s := srv.Session()
	s.MustExecContext(context.Background(), "CREATE TABLE watchlist (SupplierNo INT, Note VARCHAR(30))")
	s.MustExecContext(context.Background(), "INSERT INTO watchlist VALUES (3, 'strategic'), (7, 'probation')")
	tab, err := s.QueryContext(context.Background(), `SELECT w.Note, QR.Qual, QR.Relia
		FROM watchlist w, TABLE (GetSuppQualRelia(w.SupplierNo)) AS QR
		ORDER BY w.SupplierNo`)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.Rows[0][0].Str() != "strategic" {
		t.Errorf("combined query:\n%s", tab)
	}
}

// TestHomogenizedView realises the paper's upper tier: applications refer
// to a homogenized view that hides whether the data comes from SQL tables
// or from application-system functions.
func TestHomogenizedView(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchWfMS})
	if err != nil {
		t.Fatal(err)
	}
	s := srv.Session()
	s.MustExecContext(context.Background(), "CREATE TABLE known_suppliers (SupplierNo INT)")
	s.MustExecContext(context.Background(), "INSERT INTO known_suppliers VALUES (2), (5)")
	s.MustExecContext(context.Background(), `CREATE VIEW supplier_scores AS
		SELECT k.SupplierNo, QR.Qual, QR.Relia
		FROM known_suppliers k, TABLE (GetSuppQualRelia(k.SupplierNo)) AS QR`)
	tab, err := s.QueryContext(context.Background(), "SELECT SupplierNo, Qual FROM supplier_scores WHERE Relia > 0 ORDER BY SupplierNo")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 2 {
		t.Errorf("homogenized view:\n%s", tab)
	}
}

// TestListenRetriesAfterBindFailure: a Listen that cannot bind leaves the
// server as it was, so a later Listen on a free address serves.
func TestListenRetriesAfterBindFailure(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(busy.Addr().String()); err == nil {
		t.Fatal("Listen on an address in use succeeded")
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen after a failed bind: %v", err)
	}
	defer srv.Close()
	client, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Exec(context.Background(), "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q"); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteProtocol(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("double Listen accepted")
	}

	client, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := client.Exec(context.Background(), "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q")
	if err != nil {
		t.Fatal(err)
	}
	if tab := res.Table; tab.Len() != 1 {
		t.Errorf("remote federated call:\n%s", tab)
	}
	// DDL over the wire returns a message table.
	res, err = client.Exec(context.Background(), "CREATE TABLE t (a INT)")
	if err != nil {
		t.Fatal(err)
	}
	if tab := res.Table; tab.Len() != 1 || !strings.Contains(tab.Rows[0][0].Str(), "created") {
		t.Errorf("ddl response:\n%s", tab)
	}
	res, err = client.Exec(context.Background(), "INSERT INTO t VALUES (1), (2)")
	if err != nil {
		t.Fatal(err)
	}
	if tab := res.Table; !strings.Contains(tab.Rows[0][0].Str(), "2 rows") {
		t.Errorf("dml response:\n%s", tab)
	}
	if _, err := client.Exec(context.Background(), "SELECT nope FROM nowhere"); err == nil {
		t.Error("remote error not propagated")
	}
}

func TestAttachInProcSource(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchWfMS})
	if err != nil {
		t.Fatal(err)
	}
	remote := engine.New()
	rs := remote.NewSession()
	rs.MustExecContext(context.Background(), "CREATE TABLE prices (CompNo INT, Price DOUBLE)")
	rs.MustExecContext(context.Background(), "INSERT INTO prices VALUES (2, 0.05), (3, 0.02)")
	srv.AttachInProcSource("erp", remote)

	s := srv.Session()
	s.MustExecContext(context.Background(), "CREATE WRAPPER sqlwrapper")
	s.MustExecContext(context.Background(), "CREATE SERVER erpsrv WRAPPER sqlwrapper OPTIONS (target 'erp')")
	s.MustExecContext(context.Background(), "CREATE NICKNAME prices FOR erpsrv.prices")

	// Federated function output joined with a remote SQL source: the
	// paper's combined data-and-function integration in one statement.
	tab, err := s.QueryContext(context.Background(), `SELECT K.KompNr, p.Price
		FROM TABLE (GibKompNr('nut')) AS K, prices p
		WHERE K.KompNr = p.CompNo`)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 || tab.Rows[0][1].Float() != 0.05 {
		t.Errorf("function+data federation:\n%s", tab)
	}
}

func TestProtocolValidation(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.handler()
	if _, _, err := h(context.Background(), nil, rpc.Request{Function: "nope", Args: []types.Value{types.NewString("SELECT 1")}}); err == nil {
		t.Error("unknown protocol function accepted")
	}
	if _, _, err := h(context.Background(), nil, rpc.Request{Function: "exec"}); err == nil {
		t.Error("missing statement accepted")
	}
}

func TestExecObservedMetricsAndSlowLog(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchWfMS})
	if err != nil {
		t.Fatal(err)
	}
	var slow strings.Builder
	srv.SetSlowQueryLog(obs.NewSlowQueryLog(&slow, simlat.PaperMS))

	tab, meta, err := srv.ExecTracedContext(context.Background(), "SELECT * FROM TABLE (GetNoSuppComp('Supplier1', 'nut')) AS R", obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() == 0 {
		t.Fatal("no rows")
	}
	if meta["arch"] != "wfms" || meta["rows"] == "" {
		t.Errorf("meta = %v", meta)
	}
	paper, err := strconv.ParseFloat(meta["paper_ms"], 64)
	if err != nil || paper <= 0 {
		t.Errorf("paper_ms = %q (%v)", meta["paper_ms"], err)
	}

	m := srv.Metrics()
	if got := m.Queries.With("wfms", "ok").Value(); got != 1 {
		t.Errorf("queries ok = %v", got)
	}
	if m.WfMSActivities.Value() == 0 {
		t.Error("workflow activity counter not wired")
	}
	if m.SlowQueries.Value() != 1 || !strings.Contains(slow.String(), "slow-query") {
		t.Errorf("slow log: counter=%v line=%q", m.SlowQueries.Value(), slow.String())
	}
	if !strings.Contains(slow.String(), "fdbs.exec=") {
		t.Errorf("slow log lacks span summary: %q", slow.String())
	}

	// Errors count separately and return no metadata.
	if _, _, err := srv.ExecTracedContext(context.Background(), "SELECT nonsense FROM nowhere", obs.TraceContext{}); err == nil {
		t.Fatal("bad statement accepted")
	}
	if got := m.Queries.With("wfms", "error").Value(); got != 1 {
		t.Errorf("queries error = %v", got)
	}

	// The Prometheus endpoint exposes the counters.
	rr := httptest.NewRecorder()
	obs.MetricsMux(srv.MetricsRegistry()).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		`fedwf_queries_total{arch="wfms",status="ok"} 1`,
		`fedwf_queries_total{arch="wfms",status="error"} 1`,
		`fedwf_query_latency_paper_ms_count{arch="wfms"} 2`,
		"fedwf_wfms_activities_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	rr = httptest.NewRecorder()
	obs.MetricsMux(srv.MetricsRegistry()).ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Errorf("/healthz = %d", rr.Code)
	}
}

func TestClientExecTimedOverTCP(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF})
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

	res, err := client.Exec(context.Background(), "SELECT * FROM TABLE (GetNoSuppComp('Supplier1', 'nut')) AS R")
	if err != nil {
		t.Fatal(err)
	}
	tab, meta := res.Table, res.Meta
	if tab.Len() == 0 {
		t.Fatal("no rows over TCP")
	}
	if meta == nil || meta["arch"] != "udtf" || meta["paper_ms"] == "" || meta["wall_ms"] == "" {
		t.Errorf("timed meta = %v", meta)
	}
	if meta["rows"] != strconv.Itoa(tab.Len()) {
		t.Errorf("meta rows = %q, table has %d", meta["rows"], tab.Len())
	}
	// Plain Exec still works and graceful shutdown drains cleanly.
	if _, err := client.Exec(context.Background(), "SHOW FUNCTIONS"); err != nil {
		t.Errorf("plain exec: %v", err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

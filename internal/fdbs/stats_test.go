package fdbs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
)

// TestStatsWarehouseQueryableFromSQL is the warehouse's dogfooding check:
// the statistics the server collects about statements are themselves
// queryable as relational tables, so fedsql can ask the federation about
// its own workload.
func TestStatsWarehouseQueryableFromSQL(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF, Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sup := range []int{1, 2, 3} {
		stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", sup)
		if _, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}

	s := srv.Session()
	tab, err := s.QueryContext(context.Background(), "SELECT Fingerprint, Calls, Errors, Total_MS, Mean_MS, P99_MS, Query FROM fed_stat_statements ORDER BY Total_MS DESC LIMIT 5")
	if err != nil {
		t.Fatalf("querying fed_stat_statements: %v", err)
	}
	if tab.Len() != 1 {
		t.Fatalf("expected the three literal variants to coalesce into one fingerprint, got %d rows:\n%s", tab.Len(), tab)
	}
	row := tab.Rows[0]
	if got := row[1].Int(); got != 3 {
		t.Errorf("calls = %d, want 3", got)
	}
	if got := row[6].Str(); got != "select q.qual from table (getsuppqual(?)) as q" {
		t.Errorf("normalized query = %q", got)
	}
	if row[3].Float() <= 0 {
		t.Errorf("total_ms = %v, want > 0", row[3].Float())
	}

	fns, err := s.QueryContext(context.Background(), "SELECT Func, Calls FROM fed_stat_functions ORDER BY Total_MS DESC")
	if err != nil {
		t.Fatalf("querying fed_stat_functions: %v", err)
	}
	if fns.Len() == 0 {
		t.Fatal("fed_stat_functions is empty after federated-function statements")
	}
	if got := fns.Rows[0][0].Str(); got != "GetSuppQual" {
		t.Errorf("top function = %q, want GetSuppQual", got)
	}

	// The introspection queries above ran on a plain session, not the
	// serving path, so they must not have polluted the warehouse.
	if n := len(srv.Stats().Statements()); n != 1 {
		t.Errorf("warehouse grew to %d fingerprints after introspection queries, want 1", n)
	}
}

// TestStatsEndpointsConcurrentWithStatements hammers the serving path
// while scraping /metrics and scanning the warehouse's relations — the
// warehouse, plan store, and registry must be safe under -race. The
// metrics listener serves /metrics and /healthz and nothing else: the
// warehouse is read as SQL.
func TestStatsEndpointsConcurrentWithStatements(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF, Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(obs.MetricsMux(srv.MetricsRegistry()))
	defer web.Close()

	const writers, perWriter, scrapes = 4, 20, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", (w*perWriter+i)%9+1)
				if _, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get(web.URL + "/metrics")
			if err != nil {
				t.Errorf("GET /metrics: %v", err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("reading /metrics: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET /metrics: status %d", resp.StatusCode)
				return
			}
		}
	}()
	for _, q := range []string{"SELECT Calls FROM fed_stat_statements", "SELECT Func, Calls FROM fed_stat_functions"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			s := srv.Session()
			for i := 0; i < scrapes; i++ {
				if _, err := s.QueryContext(context.Background(), q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(q)
	}
	wg.Wait()

	tab, err := srv.Session().QueryContext(context.Background(), "SELECT Calls, Query FROM fed_stat_statements")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 || tab.Rows[0][0].Int() != writers*perWriter || tab.Rows[0][1].Str() != "select q.qual from table (getsuppqual(?)) as q" {
		t.Fatalf("after the storm fed_stat_statements holds:\n%s\nwant 1 fingerprint with %d calls", tab, writers*perWriter)
	}
	for _, path := range []string{"/stats/statements", "/stats/functions", "/traces", "/audit", "/wf/instances", "/slo"} {
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

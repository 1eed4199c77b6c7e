package fdbs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
// while scraping /metrics and the /stats endpoints and querying the
// virtual tables — the warehouse, plan store, and registry must be safe
// under -race.
func TestStatsEndpointsConcurrentWithStatements(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF, Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	mux := obs.MetricsMux(srv.MetricsRegistry())
	srv.Collector().Register(mux)
	srv.Stats().Register(mux)
	web := httptest.NewServer(mux)
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
	for _, path := range []string{"/metrics", "/stats/statements", "/stats/functions"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				resp, err := http.Get(web.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("reading %s: %v", path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := srv.Session()
		for i := 0; i < scrapes; i++ {
			if _, err := s.QueryContext(context.Background(), "SELECT Calls FROM fed_stat_statements"); err != nil {
				t.Errorf("querying fed_stat_statements: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	stmts := srv.Stats().Statements()
	if len(stmts) != 1 || stmts[0].Calls != writers*perWriter {
		got := 0
		if len(stmts) > 0 {
			got = int(stmts[0].Calls)
		}
		t.Fatalf("after the storm: %d fingerprints, top calls %d; want 1 fingerprint with %d calls", len(stmts), got, writers*perWriter)
	}
	resp, err := http.Get(web.URL + "/stats/statements")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "getsuppqual(?)") {
		t.Errorf("/stats/statements does not mention the normalized statement:\n%s", body)
	}
}

package fdbs

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/obs/journal"
	"fedwf/internal/obs/stats"
)

func newAuditServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Config{Arch: fedfunc.ArchWfMS, Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestAuditVirtualTables drives workflow statements and reads the history
// back through the acceptance queries: the instances just run via
// fed_wf_instances (newest first), their per-activity history joined via
// fed_wf_activities, and the statements themselves via fed_audit_events.
func TestAuditVirtualTables(t *testing.T) {
	srv := newAuditServer(t)
	for i := 1; i <= 6; i++ {
		stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i)
		if _, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}

	tab, _, err := srv.ExecTracedContext(context.Background(), "SELECT * FROM fed_wf_instances ORDER BY started_vt DESC LIMIT 5", obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 5 {
		t.Fatalf("fed_wf_instances LIMIT 5 returned %d rows", tab.Len())
	}
	instCol := tab.Schema.ColumnIndex("Instance")
	procCol := tab.Schema.ColumnIndex("Process")
	startCol := tab.Schema.ColumnIndex("Started_VT")
	if instCol < 0 || procCol < 0 || startCol < 0 {
		t.Fatalf("missing columns in schema %v", tab.Schema)
	}
	// Newest first: the sixth statement's instance leads, and virtual
	// start times are non-increasing.
	if got := tab.Rows[0][instCol].Str(); got != "wf-000006" {
		t.Fatalf("newest instance = %q, want wf-000006", got)
	}
	for i := 1; i < tab.Len(); i++ {
		if tab.Rows[i][startCol].Float() > tab.Rows[i-1][startCol].Float() {
			t.Fatalf("Started_VT not descending at row %d", i)
		}
	}
	if got := tab.Rows[0][procCol].Str(); got != "GetSuppQual" {
		t.Fatalf("process = %q, want GetSuppQual", got)
	}

	// Per-activity history joins on the instance id.
	newest := tab.Rows[0][instCol].Str()
	acts, _, err := srv.ExecTracedContext(context.Background(),
		"SELECT Node, Event, Rows FROM fed_wf_activities WHERE Instance = 'wf-000006' ORDER BY At_VT", obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if acts.Len() == 0 {
		t.Fatalf("no activity history for %s", newest)
	}
	seen := map[string]bool{}
	for _, r := range acts.Rows {
		seen[r[0].Str()+"/"+r[1].Str()] = true
	}
	for _, want := range []string{"GSN/started", "GSN/completed", "GQ/started", "GQ/completed"} {
		if !seen[want] {
			t.Fatalf("activity history missing %s: %v", want, seen)
		}
	}

	// The statement history itself, filtered by kind.
	evts, _, err := srv.ExecTracedContext(context.Background(),
		"SELECT Seq, Fingerprint, Rows FROM fed_audit_events WHERE Kind = 'statement' ORDER BY Seq", obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 workflow statements plus the two introspection queries above.
	if evts.Len() < 6 {
		t.Fatalf("statement events = %d, want >= 6", evts.Len())
	}
}

// TestAuditJournalMatchesStackCounters is the E15 invariant in unit form:
// journal statement events carry the same RPC and instance counts the
// stack's wire counters report.
func TestAuditJournalMatchesStackCounters(t *testing.T) {
	for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		srv, err := NewServer(Config{Arch: arch, Trace: collector.Policy{SampleRate: -1}})
		if err != nil {
			t.Fatal(err)
		}
		srv.Stack().ResetCounters()
		const n = 7
		for i := 0; i < n; i++ {
			stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i%9+1)
			if _, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
		refRPCs, refInstances := srv.Stack().Counters()
		var stmts, rpcs, instances, instEvents int64
		for _, e := range srv.Journal().Snapshot() {
			switch e.Kind {
			case journal.KindStatement:
				stmts++
				rpcs += e.RPCs
				instances += e.Instances
			case journal.KindInstance:
				instEvents++
			}
		}
		if stmts != n {
			t.Fatalf("%s: statement events = %d, want %d", arch.Label(), stmts, n)
		}
		if rpcs != refRPCs || instances != refInstances {
			t.Fatalf("%s: journal rpcs/instances = %d/%d, stack counters = %d/%d",
				arch.Label(), rpcs, instances, refRPCs, refInstances)
		}
		if instEvents != instances {
			t.Fatalf("%s: wf_instance events = %d, statement instance counts = %d",
				arch.Label(), instEvents, instances)
		}
	}
}

// TestJournalEventsCarryTheWarehouseFingerprint: a statement's events are
// stamped with the id RecordStatement returns — the warehouse entry's own,
// so the ring pins one string per fingerprint, not one per event.
func TestJournalEventsCarryTheWarehouseFingerprint(t *testing.T) {
	srv := newAuditServer(t)
	const stmt = "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q"
	for i := 0; i < 3; i++ {
		if _, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := stats.Fingerprint(stmt)
	var stmts, calls int
	for _, e := range srv.Journal().Snapshot() {
		if e.Kind != journal.KindStatement && e.Kind != journal.KindCall {
			continue
		}
		if e.Fingerprint != want {
			t.Fatalf("%s event: fingerprint %q, want %q", e.Kind, e.Fingerprint, want)
		}
		if e.Kind == journal.KindStatement {
			stmts++
		} else {
			calls++
		}
	}
	if stmts != 3 || calls == 0 {
		t.Fatalf("saw %d statement and %d call events, want 3 and some", stmts, calls)
	}
}

// TestAuditConcurrentScrapes runs statements, /audit scrapes, and
// journal-table scans concurrently — the -race build is the assertion.
func TestAuditConcurrentScrapes(t *testing.T) {
	srv := newAuditServer(t)
	mux := http.NewServeMux()
	srv.Journal().Register(mux)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", (g+i)%9+1)
				if _, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				for _, path := range []string{"/audit?n=10", "/wf/instances", "/slo"} {
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("%s: status %d", path, rec.Code)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// Scanning the audit table appends its own statement event —
			// the reentrancy the sharded snapshot must survive.
			if _, _, err := srv.ExecTracedContext(context.Background(), "SELECT Kind FROM fed_audit_events LIMIT 20", obs.TraceContext{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestShutdownFlushesSinks proves the graceful drain pushes the journal's
// buffered JSONL tail (and the slow-query log) out before returning.
func TestShutdownFlushesSinks(t *testing.T) {
	srv := newAuditServer(t)
	var sink bytes.Buffer
	srv.Journal().SetSink(&sink)
	if _, _, err := srv.ExecTracedContext(context.Background(), "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q", obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	out := sink.String()
	if !strings.Contains(out, `"kind":"statement"`) || !strings.Contains(out, `"kind":"wf_instance"`) {
		t.Fatalf("flushed sink missing events:\n%s", out)
	}
}

package fdbs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/obs/journal"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
)

// books is one server's account of a workload's fault handling and
// federated traffic: retries, breaker trips, sheds, timeouts, wire
// requests and workflow instances.
type books struct {
	Retries, Trips, Sheds, Timeouts, RPCs, Instances int64
}

// warehouseBooks sums the statement-statistics warehouse over every
// fingerprint.
func warehouseBooks(srv *Server) books {
	var b books
	for _, s := range srv.Stats().Statements() {
		b.Retries += s.Retries
		b.Trips += s.BreakerTrips
		b.Sheds += s.Sheds
		b.Timeouts += s.Timeouts
		b.RPCs += s.RPCs
		b.Instances += s.Instances
	}
	return b
}

// journalBooks counts the audit journal's fault events and sums its
// statement events' wire requests and instances.
func journalBooks(t *testing.T, srv *Server) books {
	t.Helper()
	if d := srv.Journal().Dropped(); d != 0 {
		t.Fatalf("journal dropped %d events; the workload must fit the ring", d)
	}
	var b books
	for _, e := range srv.Journal().Snapshot() {
		switch e.Kind {
		case journal.KindRetry:
			b.Retries++
		case journal.KindBreaker:
			b.Trips++
		case journal.KindShed:
			b.Sheds++
		case journal.KindTimeout:
			b.Timeouts++
		case journal.KindStatement:
			b.RPCs += e.RPCs
			b.Instances += e.Instances
		}
	}
	return b
}

// metricBooks sums the per-system Prometheus counters; the stack's own
// counters supply the wire requests and instances.
func metricBooks(srv *Server) books {
	m := srv.Metrics()
	var b books
	for _, sys := range []string{appsys.StockKeeping, appsys.ProductData, appsys.Purchasing} {
		b.Retries += int64(m.Retries.With(sys).Value())
		b.Trips += int64(m.BreakerTrips.With(sys).Value())
		b.Sheds += int64(m.BreakerSheds.With(sys).Value())
		b.Timeouts += int64(m.Timeouts.With(sys).Value())
	}
	b.RPCs, b.Instances = srv.Stack().Counters()
	return b
}

// instanceActivities sums the executed activities the journal's
// wf_instance events report.
func instanceActivities(srv *Server) int64 {
	var n int64
	for _, e := range srv.Journal().Snapshot() {
		if e.Kind == journal.KindInstance {
			n += int64(e.Activities)
		}
	}
	return n
}

// TestTelemetryBooksAgree runs a faulty workload through the serving path
// on both architectures and checks that every store the server feeds
// keeps the same books: the warehouse, the audit journal, the Prometheus
// counters and the stack's counters agree exactly on retries, breaker
// trips, sheds, timeouts, wire requests and workflow instances, and the
// plan makes each of the four fault counts non-zero. The executed workflow
// activities on /metrics agree with the journal's wf_instance events.
func TestTelemetryBooksAgree(t *testing.T) {
	for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		t.Run(arch.Label(), func(t *testing.T) {
			inj := resil.NewInjector(42)
			for _, sys := range []string{appsys.StockKeeping, appsys.ProductData, appsys.Purchasing} {
				inj.Plan(sys, resil.FaultPlan{ErrorRate: 0.3, HangRate: 0.02})
			}
			srv, err := NewServer(Config{
				Arch:           arch,
				Faults:         inj,
				Retry:          resil.RetryPolicy{MaxAttempts: 3, BaseBackoff: 800 * simlat.PaperMS, Multiplier: 2},
				Breaker:        resil.BreakerPolicy{ConsecutiveFailures: 3, OpenFor: time.Minute},
				StmtTimeout:    2000 * simlat.PaperMS,
				PartialResults: true,
				Trace:          collector.Policy{SampleRate: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i%9+1)
				// Failures are part of the plan; only the books are checked.
				_, _, _ = srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{})
			}
			wh, jn, mt := warehouseBooks(srv), journalBooks(t, srv), metricBooks(srv)
			t.Logf("warehouse %+v", wh)
			if jn != wh {
				t.Errorf("journal %+v, warehouse %+v", jn, wh)
			}
			if mt != wh {
				t.Errorf("metrics and stack %+v, warehouse %+v", mt, wh)
			}
			if wh.Retries == 0 || wh.Trips == 0 || wh.Sheds == 0 || wh.Timeouts == 0 {
				t.Errorf("the plan must exercise every fault count, got %+v", wh)
			}
			acts, inst := int64(srv.Metrics().WfMSActivities.Value()), instanceActivities(srv)
			t.Logf("activities: metrics %d, wf_instance events %d", acts, inst)
			if acts != inst {
				t.Errorf("fedwf_wfms_activities_total %d, wf_instance events' activities %d", acts, inst)
			}
			if (arch == fedfunc.ArchWfMS) != (acts > 0) {
				t.Errorf("activities %d on %s: only the WfMS architecture runs activities", acts, arch.Label())
			}
		})
	}
}

// TestTimeoutInsideACallIsCounted: a request whose hang runs into the
// statement deadline counts one timeout against its system, on every book,
// whether or not a retry or breaker policy guards the stack.
func TestTimeoutInsideACallIsCounted(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		t.Run(fmt.Sprintf("guarded=%v", guarded), func(t *testing.T) {
			inj := resil.NewInjector(42)
			for _, sys := range []string{appsys.StockKeeping, appsys.ProductData, appsys.Purchasing} {
				inj.Plan(sys, resil.FaultPlan{HangRate: 1})
			}
			cfg := Config{Arch: fedfunc.ArchUDTF, Faults: inj, StmtTimeout: 500 * simlat.PaperMS}
			if guarded {
				cfg.Retry = resil.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * simlat.PaperMS, Multiplier: 2}
				cfg.Breaker = resil.BreakerPolicy{ConsecutiveFailures: 3, OpenFor: time.Minute}
			}
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = srv.ExecTracedContext(context.Background(),
				"SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier1')) AS Q", obs.TraceContext{})
			if !errors.Is(err, resil.ErrTimeout) {
				t.Fatalf("want a timeout, got %v", err)
			}
			// The first call of GetSuppQual asks the purchasing system.
			if got := srv.Metrics().Timeouts.With(appsys.Purchasing).Value(); got != 1 {
				t.Errorf("fedwf_statement_timeouts_total{system=%q} = %v, want 1", appsys.Purchasing, got)
			}
			if wh, jn := warehouseBooks(srv), journalBooks(t, srv); wh.Timeouts != 1 || jn.Timeouts != 1 {
				t.Errorf("timeouts: warehouse %d, journal %d, want 1", wh.Timeouts, jn.Timeouts)
			}
		})
	}
}

// BenchmarkExecTraced measures the serving path's per-statement cost, with
// every store fed and the collector's probabilistic sampling off: one
// GetSuppQual statement through ExecTracedContext on the default (WfMS)
// architecture, and, in /wfms and /udtf, each operation one of the sample
// statements of every UDTF-expressible federated function in turn, through
// the WfMS and the SQL I-UDTF architecture.
func BenchmarkExecTraced(b *testing.B) {
	run := func(b *testing.B, arch fedfunc.Arch, stmts []string) {
		srv, err := NewServer(Config{Arch: arch, Trace: collector.Policy{SampleRate: -1}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := srv.ExecTracedContext(context.Background(), stmts[i%len(stmts)], obs.TraceContext{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("GetSuppQual", func(b *testing.B) {
		run(b, fedfunc.ArchWfMS, []string{"SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q"})
	})
	b.Run("wfms", func(b *testing.B) { run(b, fedfunc.ArchWfMS, sampleStatements()) })
	b.Run("udtf", func(b *testing.B) { run(b, fedfunc.ArchUDTF, sampleStatements()) })
}

// sampleStatements applies every UDTF-expressible federated function to
// each of its sample argument rows, in catalog order: the Fig. 5 mix.
func sampleStatements() []string {
	var out []string
	for _, spec := range fedfunc.Specs() {
		if !spec.SupportsUDTF() {
			continue
		}
		for _, args := range spec.SampleArgs {
			lits := make([]string, len(args))
			for i, v := range args {
				lits[i] = v.String()
			}
			out = append(out, fmt.Sprintf("SELECT * FROM TABLE (%s(%s)) AS R", spec.Name, strings.Join(lits, ", ")))
		}
	}
	return out
}

// BenchmarkTracedTCPStatement measures one sampled GetNoSuppComp statement
// over loopback TCP: the client's live trace marks the request sampled, the
// server ships its span tree back, and the client grafts it under rpc.call.
func BenchmarkTracedTCPStatement(b *testing.B) {
	srv, err := NewServer(Config{Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := DialClient(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	const stmt = "SELECT N.Number FROM TABLE (GetNoSuppComp('Supplier1', 'nut')) AS N"
	b.ReportAllocs()
	for b.Loop() {
		res, err := client.Exec(context.Background(), stmt, WithTrace())
		if err != nil {
			b.Fatal(err)
		}
		if res.Trace == nil || len(res.Trace.Children()) != 1 {
			b.Fatal("no grafted trace")
		}
	}
}

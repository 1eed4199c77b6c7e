package benchharn

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fedwf/internal/fdbs"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/obs/journal"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
)

// AuditAccuracyReport is the first half of E15: the audit journal's view
// of a deterministic workload next to the integration stack's wire
// counters and the statement-statistics warehouse — three independently
// maintained books that must agree to the statement.
type AuditAccuracyReport struct {
	Arch       string
	Statements int

	// Journal view: sums over the statement events, plus the workflow
	// instance events the wide events claim to have started.
	JnlStatements int64
	JnlRows       int64
	JnlRPCs       int64
	JnlInstances  int64
	JnlInstEvents int64 // wf_instance events actually journaled
	JnlPaper      time.Duration

	// References: stack wire counters and warehouse totals.
	RefRPCs      int64
	RefInstances int64
	WhStatements int64
	WhRows       int64
	WhRPCs       int64
	WhInstances  int64
	WhPaper      time.Duration
}

// AuditAccuracy runs n statements of one shape with rotating literals
// against a fresh federated server and cross-checks the audit journal
// against the stack's wire counters and the warehouse's totals. Every
// aggregate must match exactly: the journal is a third book over the same
// workload, not a sampled approximation.
func (h *Harness) AuditAccuracy(ctx context.Context, arch fedfunc.Arch, n int) (*AuditAccuracyReport, error) {
	if n < 2 {
		return nil, fmt.Errorf("benchharn: statement count %d out of range", n)
	}
	srv, err := fdbs.NewServer(fdbs.Config{Arch: arch, Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		return nil, err
	}
	srv.Stack().ResetCounters()

	rep := &AuditAccuracyReport{Arch: arch.Label(), Statements: n}
	for i := 0; i < n; i++ {
		stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i%9+1)
		if _, _, err := srv.ExecTracedContext(ctx, stmt, obs.TraceContext{}); err != nil {
			return nil, err
		}
	}
	rep.RefRPCs, rep.RefInstances = srv.Stack().Counters()

	for _, e := range srv.Journal().Snapshot() {
		switch e.Kind {
		case journal.KindStatement:
			rep.JnlStatements++
			rep.JnlRows += int64(e.Rows)
			rep.JnlRPCs += e.RPCs
			rep.JnlInstances += e.Instances
			rep.JnlPaper += e.DurVT
		case journal.KindInstance:
			rep.JnlInstEvents++
		}
	}

	tot := srv.Stats().Totals()
	rep.WhStatements = tot.Statements
	rep.WhRows = tot.Rows
	rep.WhRPCs = tot.RPCs
	rep.WhInstances = tot.Instances
	rep.WhPaper = tot.Paper
	return rep, nil
}

// AuditBurnReport is the second half of E15: the SLO monitor's
// multi-window view of a fault burst. A burst that is loud in the 5m
// window but quiet in the 1h window is exactly the signal the two-window
// burn-rate pattern exists to produce.
type AuditBurnReport struct {
	Seed    uint64
	Healthy int // healthy statements, spaced over virtual time
	Failing int // statements under a 100% injected error rate

	Objectives journal.Objectives
	Windows    []journal.WindowBurn
}

// Window returns the evaluation of the named window ("5m", "1h").
func (r *AuditBurnReport) Window(label string) journal.WindowBurn {
	for _, w := range r.Windows {
		if w.Window == label {
			return w
		}
	}
	return journal.WindowBurn{Window: label}
}

// AuditBurn drives the burn-rate demonstration: an hour of healthy
// statements on the virtual clock (one every 30 virtual seconds), then a
// 100% injected error rate on every application system and a short burst
// of failing statements. The deterministic injector seed makes the run
// replayable; the virtual clock makes the "hour" free.
func (h *Harness) AuditBurn(ctx context.Context, seed uint64) (*AuditBurnReport, error) {
	inj := resil.NewInjector(seed)
	srv, err := fdbs.NewServer(fdbs.Config{
		Arch:   fedfunc.ArchWfMS,
		Trace:  collector.Policy{SampleRate: -1},
		Faults: inj, // fault-free until the burst is planned below
	})
	if err != nil {
		return nil, err
	}
	// A 95% availability objective keeps the arithmetic legible: the error
	// budget is 5%, so the 1h window (5 errors in ~124 statements, ~4%)
	// stays under budget while the 5m window (5 errors in ~15) blows it.
	obj := journal.Objectives{Availability: 0.95, Latency: 250 * simlat.PaperMS}
	srv.Journal().SetObjectives(obj)

	rep := &AuditBurnReport{Seed: seed, Healthy: 120, Failing: 5, Objectives: obj}
	for i := 0; i < rep.Healthy; i++ {
		stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i%9+1)
		if _, _, err := srv.ExecTracedContext(ctx, stmt, obs.TraceContext{}); err != nil {
			return nil, err
		}
		// Space the healthy traffic out on the journal's virtual clock so
		// 120 statements cover a virtual hour.
		srv.Journal().Advance(30 * time.Second)
	}

	for _, sys := range faultSystems {
		inj.Plan(sys, resil.FaultPlan{ErrorRate: 1})
	}
	for i := 0; i < rep.Failing; i++ {
		stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i%9+1)
		if _, _, err := srv.ExecTracedContext(ctx, stmt, obs.TraceContext{}); err == nil {
			return nil, fmt.Errorf("benchharn: statement under a 100%% error rate succeeded")
		}
	}

	slo := srv.Journal().SLOReport()
	rep.Windows = slo.Windows
	return rep, nil
}

// RenderAuditAccuracy prints the E15 three-book comparison table.
func RenderAuditAccuracy(r *AuditAccuracyReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d statements — journal vs stack counters vs warehouse\n", r.Arch, r.Statements)
	fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "", "journal", "stack", "warehouse")
	b.WriteString(strings.Repeat("-", 53) + "\n")
	fmt.Fprintf(&b, "%-14s %12d %12s %12d\n", "statements", r.JnlStatements, "-", r.WhStatements)
	fmt.Fprintf(&b, "%-14s %12d %12s %12d\n", "rows", r.JnlRows, "-", r.WhRows)
	fmt.Fprintf(&b, "%-14s %12d %12d %12d\n", "rpcs", r.JnlRPCs, r.RefRPCs, r.WhRPCs)
	fmt.Fprintf(&b, "%-14s %12d %12d %12d\n", "wf-instances", r.JnlInstances, r.RefInstances, r.WhInstances)
	fmt.Fprintf(&b, "%-14s %12d %12s %12s  (wf_instance events)\n", "inst events", r.JnlInstEvents, "-", "-")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "paper total", fmtPaperMS(r.JnlPaper), "-", fmtPaperMS(r.WhPaper))
	return b.String()
}

// RenderAuditBurn prints the E15 burn-rate table.
func RenderAuditBurn(r *AuditBurnReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d healthy statements over a virtual hour, then %d failing (100%% injected errors)\n",
		r.Seed, r.Healthy, r.Failing)
	fmt.Fprintf(&b, "objectives: availability %.3f, latency %.0f paper-ms\n",
		r.Objectives.Availability, float64(r.Objectives.Latency)/float64(simlat.PaperMS))
	fmt.Fprintf(&b, "%-8s %11s %7s %6s %11s %11s\n", "window", "statements", "errors", "slow", "avail burn", "lat burn")
	b.WriteString(strings.Repeat("-", 58) + "\n")
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "%-8s %11d %7d %6d %11.2f %11.2f\n",
			w.Window, w.Statements, w.Errors, w.Slow, w.AvailBurn, w.LatencyBurn)
	}
	return b.String()
}

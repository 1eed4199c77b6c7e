package benchharn

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"fedwf/internal/fdbs"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/obs/stats"
	"fedwf/internal/simlat"
)

// StatsReport is the E14 result: the statement-statistics warehouse's
// view of a deterministic workload next to independently collected
// reference numbers, so a test can assert the warehouse is exact — not
// merely plausible — on everything except the quantiles, which are
// bounded by the sketch's one-bucket error.
type StatsReport struct {
	Arch       string
	Statements int // statements executed

	// Warehouse view.
	Fingerprints int
	Query        string // normalized text of the single expected fingerprint
	Calls        int64
	Rows         int64
	RPCs         int64
	Instances    int64
	Paper        time.Duration // warehouse total simulated time
	P99MS        float64       // sketch p99 of per-statement paper ms

	// Independent references: the integration stack's wire counters and
	// the serving path's per-statement metadata.
	RefRows      int64
	RefRPCs      int64
	RefInstances int64
	RefPaper     time.Duration // sum of per-statement paper_ns metadata
	ExactP99MS   float64       // exact p99 over the recorded per-statement times
}

// StatementStats runs the E14 experiment: n statements over the same
// statement shape with rotating literals against a fresh federated server
// (tail sampling off so the workload is the only nondeterminism-free
// variable), then checks the warehouse against the stack's own counters
// and the serving metadata. One statement shape must yield exactly one
// fingerprint; calls, rows, RPCs, workflow instances, and total simulated
// time must match the references exactly; the p99 read off the sketch
// must sit within one log bucket of the exact p99.
func (h *Harness) StatementStats(ctx context.Context, arch fedfunc.Arch, n int) (*StatsReport, error) {
	if n < 2 {
		return nil, fmt.Errorf("benchharn: statement count %d out of range", n)
	}
	srv, err := fdbs.NewServer(fdbs.Config{Arch: arch, Trace: collector.Policy{SampleRate: -1}})
	if err != nil {
		return nil, err
	}
	srv.Stack().ResetCounters()

	rep := &StatsReport{Arch: arch.Label(), Statements: n}
	perCallMS := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Rotating supplier literals: every statement is textually
		// distinct, so coalescing to one fingerprint is the normalizer's
		// doing, not the workload's.
		stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i%9+1)
		tab, meta, err := srv.ExecTracedContext(ctx, stmt, obs.TraceContext{})
		if err != nil {
			return nil, err
		}
		rep.RefRows += int64(tab.Len())
		ns, err := strconv.ParseInt(meta["paper_ns"], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchharn: bad paper_ns metadata %q: %w", meta["paper_ns"], err)
		}
		rep.RefPaper += time.Duration(ns)
		perCallMS = append(perCallMS, float64(ns)/float64(simlat.PaperMS))
	}
	rep.RefRPCs, rep.RefInstances = srv.Stack().Counters()

	stmts := srv.Stats().Statements()
	rep.Fingerprints = len(stmts)
	if len(stmts) > 0 {
		top := stmts[0]
		rep.Query = top.Query
		rep.Calls = top.Calls
		rep.Rows = top.Rows
		rep.RPCs = top.RPCs
		rep.Instances = top.Instances
		rep.P99MS = top.P99MS
	}
	rep.Paper = srv.Stats().Totals().Paper

	sort.Float64s(perCallMS)
	// Rank = ceil(q*count), 1-indexed — the sketch's Quantile definition —
	// so the one-bucket bound compares like with like.
	rank := (99*len(perCallMS) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	rep.ExactP99MS = perCallMS[rank-1]
	return rep, nil
}

// RenderStatementStats prints the E14 warehouse-vs-reference table.
func RenderStatementStats(r *StatsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d statements, %d fingerprint(s): %s\n", r.Arch, r.Statements, r.Fingerprints, r.Query)
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "", "warehouse", "reference")
	b.WriteString(strings.Repeat("-", 38) + "\n")
	fmt.Fprintf(&b, "%-12s %12d %12d\n", "calls", r.Calls, r.Statements)
	fmt.Fprintf(&b, "%-12s %12d %12d\n", "rows", r.Rows, r.RefRows)
	fmt.Fprintf(&b, "%-12s %12d %12d\n", "rpcs", r.RPCs, r.RefRPCs)
	fmt.Fprintf(&b, "%-12s %12d %12d\n", "wf-instances", r.Instances, r.RefInstances)
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "paper total", fmtPaperMS(r.Paper), fmtPaperMS(r.RefPaper))
	fmt.Fprintf(&b, "%-12s %9.3fms %9.3fms  (bound %.3fms)\n", "p99", r.P99MS, r.ExactP99MS, r.ExactP99MS*stats.SketchGamma)
	return b.String()
}

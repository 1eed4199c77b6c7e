package benchharn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fedwf/internal/fedfunc"
	"fedwf/internal/obs/stats"
	"fedwf/internal/resil"
)

// The acceptance bars of E12–E16. paperbench only prints these
// experiments and cmd/paperbench's golden pins what it prints; the bars
// that give the numbers their meaning are held here, in the configuration
// paperbench prints (seed 42, batch size 8) and over further seeds and
// batch sizes it does not.

// barSeeds are the fault-injection seeds of the E12 and E15 bars:
// paperbench's default and ten more.
var barSeeds = []uint64{42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// TestSetOrientedBars is the E13 bar: a batched chunk is one wire request
// and one workflow instance, so at chunk size B the batched mode issues at
// most ceil(N/B) of each; and batching on top of parallelism wins,
// strictly, over per-row parallelism at every architecture and N.
func TestSetOrientedBars(t *testing.T) {
	ns := []int{8, 16, 24}
	for _, b := range []int{2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("B=%d", b), func(t *testing.T) {
			rows, err := newHarness(t).SetOriented(context.Background(), ns, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := 2 * len(ns) * 4; len(rows) != want {
				t.Fatalf("rows = %d, want %d (2 archs × %d sizes × 4 modes)", len(rows), want, len(ns))
			}
			perRowParallel := make(map[string]time.Duration)
			for _, r := range rows {
				key := fmt.Sprintf("%s/%d", r.Arch.Label(), r.N)
				switch r.Mode {
				case "batched":
					chunks := int64((r.N + b - 1) / b)
					if r.RPCs > chunks {
						t.Errorf("%s: batched mode issued %d RPCs, want <= %d", key, r.RPCs, chunks)
					}
					if r.Arch == fedfunc.ArchWfMS && r.WfInst > chunks {
						t.Errorf("%s: batched mode started %d workflow instances, want <= %d", key, r.WfInst, chunks)
					}
				case "parallel":
					perRowParallel[key] = r.Elapsed
				case "batched+parallel":
					par, ok := perRowParallel[key]
					if !ok {
						t.Errorf("%s: no per-row parallel row before batched+parallel", key)
					} else if r.Elapsed >= par {
						t.Errorf("%s: batched+parallel %v not below per-row parallel %v", key, r.Elapsed, par)
					}
				}
			}
		})
	}
	t.Run("B=1", func(t *testing.T) {
		_, err := newHarness(t).SetOriented(context.Background(), ns, 1)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("batch size 1: err = %v, want out of range", err)
		}
	})
}

// TestFaultsBars is the E12 bar: at a 20% transient error rate the
// protected stack keeps >= 99% statement success; a hung system resolves
// to ErrTimeout; the breaker trips and sheds the next call with
// ErrCircuitOpen without reaching the faulty system; and an optional
// branch over the open circuit degrades to a flagged partial result.
func TestFaultsBars(t *testing.T) {
	h := newHarness(t)
	for _, seed := range barSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := h.Faults(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			barred := 0
			for _, r := range rep.Rows {
				if r.ErrorRate < 0.20 {
					continue
				}
				barred++
				if r.ProtectedRate() < 0.99 {
					t.Errorf("protected success %.1f%% < 99%% for %s at %.0f%% error rate",
						r.ProtectedRate()*100, r.Function, r.ErrorRate*100)
				}
			}
			if barred == 0 {
				t.Error("no sweep row at a 20% error rate")
			}
			if !rep.HangIsTimeout {
				t.Error("hung system did not resolve to ErrTimeout")
			}
			if !rep.BreakerTripped || !rep.ShedIsOpenErr || !rep.ShedWithoutCall {
				t.Errorf("breaker demonstration failed (tripped=%v openErr=%v uncalled=%v)",
					rep.BreakerTripped, rep.ShedIsOpenErr, rep.ShedWithoutCall)
			}
			if !rep.PartialFlagged {
				t.Error("optional branch did not degrade to a partial result")
			}
		})
	}
}

// exactTotals reports whether every warehouse aggregate equals its
// independent reference: one fingerprint for one statement shape, and
// calls, rows, RPCs, workflow instances and total simulated time equal to
// the stack's own counters and the serving metadata.
func exactTotals(r *StatsReport) bool {
	return r.Fingerprints == 1 &&
		r.Calls == int64(r.Statements) &&
		r.Rows == r.RefRows &&
		r.RPCs == r.RefRPCs &&
		r.Instances == r.RefInstances &&
		r.Paper == r.RefPaper
}

// p99WithinOneBucket reports whether the sketch's p99 sits in
// [exact, exact*SketchGamma] — the log-bucket error bound.
func p99WithinOneBucket(r *StatsReport) bool {
	return r.P99MS >= r.ExactP99MS && r.P99MS <= r.ExactP99MS*stats.SketchGamma
}

// TestStatementStatsBars is the E14 bar: the warehouse is an exact ledger,
// while the quantile sketch's p99 may sit at most one log bucket above
// the exact p99.
func TestStatementStatsBars(t *testing.T) {
	h := newHarness(t)
	for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		rep, err := h.StatementStats(context.Background(), arch, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !exactTotals(rep) {
			t.Errorf("%s: warehouse totals diverge from the references (fingerprints=%d calls=%d/%d rows=%d/%d rpcs=%d/%d instances=%d/%d paper=%v/%v)",
				rep.Arch, rep.Fingerprints, rep.Calls, rep.Statements, rep.Rows, rep.RefRows,
				rep.RPCs, rep.RefRPCs, rep.Instances, rep.RefInstances, rep.Paper, rep.RefPaper)
		}
		if !p99WithinOneBucket(rep) {
			t.Errorf("%s: sketch p99 %.3fms outside [%.3fms, %.3fms]",
				rep.Arch, rep.P99MS, rep.ExactP99MS, rep.ExactP99MS*stats.SketchGamma)
		}
	}
}

// journalExact reports whether journal, stack and warehouse agree
// exactly: the journal's wide events sum to the stack's wire counters and
// the warehouse's totals, and every claimed workflow instance has its own
// wf_instance event.
func journalExact(r *AuditAccuracyReport) bool {
	return r.JnlStatements == int64(r.Statements) &&
		r.JnlRPCs == r.RefRPCs && r.JnlRPCs == r.WhRPCs &&
		r.JnlInstances == r.RefInstances && r.JnlInstances == r.WhInstances &&
		r.JnlInstEvents == r.JnlInstances &&
		r.WhStatements == int64(r.Statements) &&
		r.JnlRows == r.WhRows &&
		r.JnlPaper == r.WhPaper
}

// burstDetected reports the burn shape: the fault burst pushes the
// 5-minute availability burn over 1.0 while the 1-hour window, diluted by
// an hour of healthy traffic, stays under 1.0 — the multi-window shape
// that separates an incident from an SLO miss.
func burstDetected(r *AuditBurnReport) bool {
	return r.Window("5m").AvailBurn > 1.0 && r.Window("1h").AvailBurn < 1.0
}

// TestAuditBars is the E15 bar: the journal is a third exact book over the
// workload on both architectures, and the seeded fault burst is loud in
// the 5-minute window and quiet in the 1-hour one.
func TestAuditBars(t *testing.T) {
	h := newHarness(t)
	for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		rep, err := h.AuditAccuracy(context.Background(), arch, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !journalExact(rep) {
			t.Errorf("%s: journal diverges from the references (stmts=%d/%d rows=%d/%d rpcs=%d/%d/%d instances=%d/%d/%d instEvents=%d paper=%v/%v)",
				rep.Arch, rep.JnlStatements, rep.Statements, rep.JnlRows, rep.WhRows,
				rep.JnlRPCs, rep.RefRPCs, rep.WhRPCs, rep.JnlInstances, rep.RefInstances, rep.WhInstances,
				rep.JnlInstEvents, rep.JnlPaper, rep.WhPaper)
		}
	}
	for _, seed := range barSeeds {
		burn, err := h.AuditBurn(context.Background(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !burstDetected(burn) {
			t.Errorf("seed %d: burn shape wrong (5m=%.2f want >1, 1h=%.2f want <1)",
				seed, burn.Window("5m").AvailBurn, burn.Window("1h").AvailBurn)
		}
	}
}

// TestServingSweepBars is the E16 bar: the bookkeeping is exact (every
// generated statement either completed or shed), every shed is the typed
// resil.ErrAppSysUnavailable the live admission controller produces, at
// 10 000 sessions the bounded queue sheds rather than collapsing, and the
// pipelined window beats the serialized one on p99 at a scale without
// admission pressure.
func TestServingSweepBars(t *testing.T) {
	rep, err := newHarness(t).ServingSweep(context.Background(), []int{100, 1000, 10000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if got, want := r.Completed+r.Shed, r.Sessions*r.Cfg.Requests; got != want {
			t.Errorf("%d sessions account for %d statements, want %d", r.Sessions, got, want)
		}
		for _, e := range r.Errs {
			if !errors.Is(e, resil.ErrAppSysUnavailable) {
				t.Errorf("%d sessions: shed error is not ErrAppSysUnavailable: %v", r.Sessions, e)
			}
		}
	}
	if last := rep.Rows[len(rep.Rows)-1]; last.Shed == 0 {
		t.Errorf("no statements shed at %d sessions: admission control is not bounding the queue", last.Sessions)
	}
	if rep.Pipelined.P99 >= rep.Serialized.P99 {
		t.Errorf("pipelined p99 %v not below serialized p99 %v", rep.Pipelined.P99, rep.Serialized.P99)
	}
}

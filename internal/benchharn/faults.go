package benchharn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// E12 — fault tolerance under deterministic fault injection (extension).
//
// The experiment sweeps transient-error rates over the federated stack and
// compares an unprotected baseline against the protected configuration
// (retry with backoff + per-appsys circuit breaker), then demonstrates the
// two non-statistical guarantees: a hung application system resolves to
// ErrTimeout within the statement deadline on the virtual clock, and an
// open breaker sheds calls without invoking the faulty system (degrading
// to a flagged partial result on optional branches).

// faultSystems lists every application system of the scenario; the
// injector plans faults on all of them so the workload cannot dodge the
// fault mix by routing around one system.
var faultSystems = []string{appsys.StockKeeping, appsys.ProductData, appsys.Purchasing}

// FaultSweepRow is one (error rate, function) cell of the E12 sweep.
type FaultSweepRow struct {
	ErrorRate float64
	Function  string
	Calls     int
	// UnprotectedOK / ProtectedOK count statements that succeeded without /
	// with the resilience layer.
	UnprotectedOK int
	ProtectedOK   int
	// Retries is the number of retry attempts the protected stack spent.
	Retries int
}

// UnprotectedRate returns the baseline success fraction.
func (r FaultSweepRow) UnprotectedRate() float64 { return float64(r.UnprotectedOK) / float64(r.Calls) }

// ProtectedRate returns the protected success fraction.
func (r FaultSweepRow) ProtectedRate() float64 { return float64(r.ProtectedOK) / float64(r.Calls) }

// FaultReport is the full E12 result.
type FaultReport struct {
	Seed uint64
	Rows []FaultSweepRow

	// Hang demonstration: a 100%-hang system under a statement deadline.
	HangIsTimeout bool          // the error matches resil.ErrTimeout
	HangElapsed   time.Duration // virtual elapsed time when the statement gave up
	HangLimit     time.Duration // the configured statement deadline

	// Breaker demonstration: a 100%-error system behind a breaker.
	BreakerTripped  bool // the breaker opened
	ShedIsOpenErr   bool // the shed call's error matches resil.ErrCircuitOpen
	ShedWithoutCall bool // the shed call never reached the injector
	// Partial-result demonstration: the same open breaker under an
	// optional (LEFT lateral) branch with partial results enabled.
	PartialFlagged  bool
	PartialWarnings []string
}

// faultStack builds a WfMS-architecture stack whose application systems
// inject the given plan on every system, optionally guarded by the
// protected retry/breaker configuration.
func faultStack(seed uint64, plan resil.FaultPlan, protected bool, extra func(*fedfunc.Options)) (*fedfunc.Stack, error) {
	inj := resil.NewInjector(seed)
	for _, sys := range faultSystems {
		inj.Plan(sys, plan)
	}
	opts := fedfunc.Options{Faults: inj}
	if protected {
		// The sweep isolates the retry mechanism; the breaker is
		// demonstrated separately (at a 20% ambient error rate a
		// consecutive-failure breaker would eventually trip mid-sweep and
		// shed the remainder, conflating the two mechanisms).
		opts.Retry = resil.DefaultRetryPolicy()
		// Four attempts drive the per-call residual failure at a 20%
		// injected rate to 0.2^4 = 0.16%, keeping even the multi-call
		// linear function above 99% statement success.
		opts.Retry.MaxAttempts = 4
	}
	if extra != nil {
		extra(&opts)
	}
	return fedfunc.NewStack(fedfunc.ArchWfMS, opts)
}

// Faults runs the E12 sweep with the given deterministic seed: rates 5%,
// 10%, and 20% over the trivial (one call per statement) and linear
// (several calls per statement) federated functions, 200 statements each,
// then the hang and breaker demonstrations.
func (h *Harness) Faults(ctx context.Context, seed uint64) (*FaultReport, error) {
	report := &FaultReport{Seed: seed}
	const statements = 200
	specs := map[string]*fedfunc.Spec{}
	for _, s := range fedfunc.Specs() {
		specs[s.Name] = s
	}
	for _, rate := range []float64{0.05, 0.10, 0.20} {
		for _, fn := range []string{"GibKompNr", "GetSuppQual"} {
			spec, ok := specs[fn]
			if !ok {
				return nil, fmt.Errorf("benchharn: no spec %s", fn)
			}
			plan := resil.FaultPlan{ErrorRate: rate}
			unprot, err := faultStack(seed, plan, false, nil)
			if err != nil {
				return nil, err
			}
			prot, err := faultStack(seed, plan, true, nil)
			if err != nil {
				return nil, err
			}
			row := FaultSweepRow{ErrorRate: rate, Function: fn, Calls: statements}
			// The protected statements count their retries into one set.
			protCtx, protCounts := obs.WithStmtCounters(ctx)
			for i := 0; i < statements; i++ {
				sample := i % len(spec.SampleArgs)
				if _, err := unprot.CallContext(ctx, simlat.NewVirtualTask(), fn, spec.SampleArgs[sample]); err == nil {
					row.UnprotectedOK++
				}
				if _, err := prot.CallContext(protCtx, simlat.NewVirtualTask(), fn, spec.SampleArgs[sample]); err == nil {
					row.ProtectedOK++
				}
			}
			row.Retries = int(protCounts.Snapshot().Retries)
			report.Rows = append(report.Rows, row)
		}
	}

	if err := h.faultHangDemo(ctx, seed, report); err != nil {
		return nil, err
	}
	if err := h.faultBreakerDemo(ctx, seed, report); err != nil {
		return nil, err
	}
	return report, nil
}

// faultHangDemo drives one statement into a system that always hangs and
// checks it resolves to ErrTimeout at the statement deadline (virtual
// time — the test itself never blocks).
func (h *Harness) faultHangDemo(ctx context.Context, seed uint64, report *FaultReport) error {
	const limit = 500 * simlat.PaperMS
	stack, err := faultStack(seed, resil.FaultPlan{HangRate: 1}, true, func(o *fedfunc.Options) {
		o.StmtTimeout = limit
	})
	if err != nil {
		return err
	}
	task := simlat.NewVirtualTask()
	_, callErr := stack.CallContext(ctx, task, "GibKompNr",
		[]types.Value{types.NewString("washer")})
	report.HangIsTimeout = errors.Is(callErr, resil.ErrTimeout)
	report.HangElapsed = task.Elapsed()
	report.HangLimit = limit
	return nil
}

// faultBreakerDemo trips a breaker on an always-failing system, verifies
// the next call is shed unexecuted with ErrCircuitOpen, and shows the
// partial-result degradation of an optional branch over the open circuit.
func (h *Harness) faultBreakerDemo(ctx context.Context, seed uint64, report *FaultReport) error {
	inj := resil.NewInjector(seed)
	inj.Plan(appsys.ProductData, resil.FaultPlan{ErrorRate: 1})
	stack, err := fedfunc.NewStack(fedfunc.ArchWfMS, fedfunc.Options{
		Faults:         inj,
		Breaker:        resil.BreakerPolicy{ConsecutiveFailures: 3, OpenFor: time.Minute},
		PartialResults: true,
	})
	if err != nil {
		return err
	}
	args := []types.Value{types.NewString("washer")}
	tripCtx, tripCounts := obs.WithStmtCounters(ctx)
	for i := 0; i < 3; i++ {
		if _, err := stack.CallContext(tripCtx, simlat.NewVirtualTask(), "GibKompNr", args); err == nil {
			return fmt.Errorf("benchharn: always-failing system succeeded")
		}
	}
	report.BreakerTripped = tripCounts.Snapshot().BreakerTrips > 0
	before := inj.Injected(appsys.ProductData)
	_, shedErr := stack.CallContext(ctx, simlat.NewVirtualTask(), "GibKompNr", args)
	report.ShedIsOpenErr = errors.Is(shedErr, resil.ErrCircuitOpen)
	report.ShedWithoutCall = inj.Injected(appsys.ProductData) == before

	// Optional branch: a LEFT lateral over the open circuit degrades to a
	// NULL-padded partial result instead of failing the statement.
	session := stack.Engine().NewSessionOn(simlat.NewVirtualTask())
	if _, err := session.ExecContext(ctx, "CREATE TABLE comps (Name VARCHAR(30))"); err != nil {
		return err
	}
	if _, err := session.ExecContext(ctx, "INSERT INTO comps VALUES ('washer'), ('bolt')"); err != nil {
		return err
	}
	res, err := session.ExecContext(ctx,
		"SELECT c.Name, k.KompNr FROM comps c LEFT JOIN TABLE (GibKompNr(c.Name)) AS k ON 1 = 1")
	if err != nil {
		return fmt.Errorf("benchharn: optional branch did not degrade: %w", err)
	}
	report.PartialFlagged = res.Partial
	report.PartialWarnings = res.Warnings
	return nil
}

// RenderFaults renders the E12 report as text tables.
func RenderFaults(r *FaultReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault sweep (seed %d, %d statements per cell; protected = retry with backoff, 4 attempts):\n\n", r.Seed, r.Rows[0].Calls)
	fmt.Fprintf(&b, "%-11s %-12s %12s %12s %8s\n", "error rate", "function", "unprotected", "protected", "retries")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%9.0f%%  %-12s %11.1f%% %11.1f%% %8d\n",
			row.ErrorRate*100, row.Function, row.UnprotectedRate()*100, row.ProtectedRate()*100, row.Retries)
	}
	b.WriteString("\nhang demonstration (HangRate=1, statement timeout 500 paper-ms):\n")
	fmt.Fprintf(&b, "  timeout error: %v; gave up at %.1f paper-ms (limit %.1f)\n",
		r.HangIsTimeout,
		float64(r.HangElapsed)/float64(simlat.PaperMS),
		float64(r.HangLimit)/float64(simlat.PaperMS))
	b.WriteString("\nbreaker demonstration (ErrorRate=1, trip after 3 consecutive failures):\n")
	fmt.Fprintf(&b, "  tripped: %v; shed with ErrCircuitOpen: %v; faulty system not called: %v\n",
		r.BreakerTripped, r.ShedIsOpenErr, r.ShedWithoutCall)
	fmt.Fprintf(&b, "  optional branch degraded to partial result: %v\n", r.PartialFlagged)
	for _, w := range r.PartialWarnings {
		fmt.Fprintf(&b, "    warning: %s\n", w)
	}
	return b.String()
}

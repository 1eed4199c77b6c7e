package fdbs

import (
	"context"
	"errors"
	"testing"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// typedOutcome reports whether an error from a chaos statement belongs to
// the documented taxonomy: a statement under fault injection may fail, but
// only with an error the caller can dispatch on.
func typedOutcome(err error) bool {
	var appErr *resil.AppSysError
	return errors.Is(err, resil.ErrTimeout) ||
		errors.Is(err, resil.ErrCircuitOpen) ||
		errors.Is(err, resil.ErrAppSysUnavailable) ||
		errors.As(err, &appErr)
}

// TestChaosStatementsAlwaysResolve runs a quickstart-like workload under
// random fault injection (transient errors, latency spikes, and hangs on
// every application system, fixed seed) with the full protection stack on:
// retries, breaker, statement deadline, partial results. Every statement
// must resolve — success, an error from the typed taxonomy, or a flagged
// partial result. Nothing may hang: injected hangs burn virtual time only,
// the statement deadline runs on the virtual clock, and FaultPlan bounds
// even deadline-free hangs, so the test completes in wall-clock
// milliseconds while simulating seconds of faulty federation. Run with
// -race (CI does) to exercise the breaker and budget under the parallel
// lateral operators.
func TestChaosStatementsAlwaysResolve(t *testing.T) {
	const seed = 20020318 // fixed: the fault sequence is reproducible
	inj := resil.NewInjector(seed)
	for _, sys := range []string{appsys.StockKeeping, appsys.ProductData, appsys.Purchasing} {
		inj.Plan(sys, resil.FaultPlan{ErrorRate: 0.15, SlowRate: 0.05, HangRate: 0.02})
	}
	srv, err := NewServer(Config{
		Arch:   fedfunc.ArchWfMS,
		Faults: inj,
		Retry:  resil.DefaultRetryPolicy(),
		// A wide breaker: ambient 15% errors should mostly retry through,
		// but an unlucky streak may trip it — then ErrCircuitOpen and
		// degraded partial results are the accepted outcomes.
		Breaker:        resil.BreakerPolicy{ConsecutiveFailures: 8, OpenFor: time.Minute},
		StmtTimeout:    2000 * simlat.PaperMS,
		PartialResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Engine().SetParallelism(4) // chaos under ParallelApply, not just sequential

	setup := srv.Session()
	setup.SetTask(simlat.NewVirtualTask())
	setup.MustExecContext(context.Background(), "CREATE TABLE comps (Name VARCHAR(30))")
	setup.MustExecContext(context.Background(), "INSERT INTO comps VALUES ('washer'), ('bolt'), ('nut')")

	statements := []string{
		"SELECT KompNr FROM TABLE (GibKompNr('washer')) AS K",
		"SELECT BSC.Decision FROM TABLE (BuySuppComp(4, 'washer')) AS BSC",
		"SELECT c.Name, QR.Qual FROM comps c, TABLE (GetSuppQual(1)) AS QR",
		"SELECT c.Name, k.KompNr FROM comps c LEFT JOIN TABLE (GibKompNr(c.Name)) AS k ON 1 = 1",
	}

	var ok, typed, partial int
	for i := 0; i < 120; i++ {
		text := statements[i%len(statements)]
		session := srv.Session()
		task := simlat.NewVirtualTask()
		session.SetTask(task)
		res, execErr := session.ExecContext(context.Background(), text)
		switch {
		case execErr == nil && res.Partial:
			partial++
		case execErr == nil:
			ok++
		case typedOutcome(execErr):
			typed++
		default:
			t.Fatalf("statement %d (%s): untyped error: %v", i, text, execErr)
		}
		// The virtual clock bounds every outcome: even a statement that
		// absorbed injected hangs must have given up by its deadline (plus
		// one bounded hang chunk already in flight when the deadline fired).
		if limit := 2*2000*simlat.PaperMS + 10000*simlat.PaperMS; task.Elapsed() > time.Duration(limit) {
			t.Fatalf("statement %d (%s) overran the virtual watchdog: %v", i, text, task.Elapsed())
		}
	}
	t.Logf("chaos outcomes: %d ok, %d typed errors, %d partial (retries spent: %d)",
		ok, typed, partial, srv.Stack().Guard().Retries())
	if ok == 0 {
		t.Error("no statement succeeded under 15% transient errors with retries")
	}
	if ok+typed+partial != 120 {
		t.Errorf("outcomes do not sum: %d+%d+%d", ok, typed, partial)
	}
}

// TestChaosDeterministicReplay pins the seed contract: two runs with the
// same seed inject the identical fault sequence, so chaos failures found
// in CI replay exactly on a developer machine.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() (string, int) {
		inj := resil.NewInjector(7)
		inj.Plan(appsys.ProductData, resil.FaultPlan{ErrorRate: 0.5})
		srv, err := NewServer(Config{Arch: fedfunc.ArchUDTF, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		var outcomes []byte
		for i := 0; i < 40; i++ {
			_, callErr := srv.Stack().CallContext(context.Background(), simlat.NewVirtualTask(),
				"GibKompNr", []types.Value{types.NewString("washer")})
			if callErr != nil {
				outcomes = append(outcomes, 'E')
			} else {
				outcomes = append(outcomes, '.')
			}
		}
		return string(outcomes), inj.Injected(appsys.ProductData)
	}
	seq1, n1 := run()
	seq2, n2 := run()
	if seq1 != seq2 || n1 != n2 {
		t.Errorf("same seed diverged:\n%s (%d injected)\n%s (%d injected)", seq1, n1, seq2, n2)
	}
	if n1 == 0 {
		t.Error("no faults injected at 50% error rate")
	}
}

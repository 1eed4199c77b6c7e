package resil

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func TestErrorTaxonomy(t *testing.T) {
	te := &TimeoutError{Limit: 100 * simlat.PaperMS, Elapsed: 120 * simlat.PaperMS}
	if !errors.Is(te, ErrTimeout) {
		t.Fatalf("TimeoutError should match ErrTimeout")
	}
	if !errors.Is(te, context.DeadlineExceeded) {
		t.Fatalf("TimeoutError should match context.DeadlineExceeded")
	}
	co := &CircuitOpenError{System: "PPS"}
	if !errors.Is(co, ErrCircuitOpen) {
		t.Fatalf("CircuitOpenError should match ErrCircuitOpen")
	}
	if !Degradable(co) {
		t.Fatalf("circuit-open should be degradable")
	}
	ae := &AppSysError{System: "PPS", Transient: true, Err: errors.New("boom")}
	if !errors.Is(ae, ErrAppSysUnavailable) {
		t.Fatalf("AppSysError should match ErrAppSysUnavailable")
	}
	if !Transient(ae) {
		t.Fatalf("transient AppSysError should be Transient")
	}
	if Transient(&AppSysError{System: "X", Transient: false, Err: errors.New("no such system")}) {
		t.Fatalf("permanent AppSysError must not be Transient")
	}
	var got *AppSysError
	wrapped := &AppSysError{System: "EDI", Transient: true, Err: te}
	if !errors.As(wrapped, &got) || got.System != "EDI" {
		t.Fatalf("errors.As should recover the AppSysError carrier")
	}
	if !errors.Is(wrapped, ErrTimeout) {
		t.Fatalf("AppSysError wrapping a timeout should match ErrTimeout")
	}
}

func TestCheckVirtualDeadline(t *testing.T) {
	task := simlat.NewVirtualTask()
	ctx := WithDeadlineAt(context.Background(), 50*simlat.PaperMS)
	if err := Check(ctx, task); err != nil {
		t.Fatalf("fresh task should pass: %v", err)
	}
	task.Spend(49 * simlat.PaperMS)
	if err := Check(ctx, task); err != nil {
		t.Fatalf("under deadline should pass: %v", err)
	}
	task.Spend(2 * simlat.PaperMS)
	err := Check(ctx, task)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("past deadline should be ErrTimeout, got %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Limit != 50*simlat.PaperMS {
		t.Fatalf("TimeoutError should carry the limit, got %+v", err)
	}
}

func TestCheckForkedBranchSharesDeadline(t *testing.T) {
	task := simlat.NewVirtualTask()
	task.Spend(30 * simlat.PaperMS)
	ctx := WithDeadlineAt(context.Background(), 50*simlat.PaperMS)
	branch := task.Fork()
	branch.Spend(25 * simlat.PaperMS)
	if err := Check(ctx, branch); !errors.Is(err, ErrTimeout) {
		t.Fatalf("fork inherits parent clock; 55ms elapsed should exceed 50ms deadline, got %v", err)
	}
}

func TestCheckCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Check(ctx, simlat.NewVirtualTask())
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx should surface context.Canceled, got %v", err)
	}
}

func TestBudget(t *testing.T) {
	if NewBudget(0) != nil {
		t.Fatalf("zero budget should be nil (unlimited)")
	}
	var unlimited *Budget
	if !unlimited.Take() {
		t.Fatalf("nil budget should always allow")
	}
	b := NewBudget(2)
	if !b.Take() || !b.Take() {
		t.Fatalf("budget of 2 should allow twice")
	}
	if b.Take() {
		t.Fatalf("budget of 2 should deny the third take")
	}
	ctx := WithBudget(context.Background(), b)
	if BudgetFrom(ctx) != b {
		t.Fatalf("budget should round-trip through ctx")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := DefaultRetryPolicy()
	p.Seed = 42
	a1 := p.Backoff(1, "PPS")
	a2 := p.Backoff(1, "PPS")
	if a1 != a2 {
		t.Fatalf("backoff must be deterministic: %v vs %v", a1, a2)
	}
	if p.Backoff(1, "EDI") == a1 {
		t.Fatalf("different systems should jitter differently")
	}
	base := float64(p.BaseBackoff)
	if f := float64(a1); f < base*0.8 || f > base*1.2 {
		t.Fatalf("jitter should stay within ±20%%: got %v for base %v", a1, p.BaseBackoff)
	}
	for r := 1; r < 10; r++ {
		if d := p.Backoff(r, "PPS"); float64(d) > float64(p.MaxBackoff)*1.2 {
			t.Fatalf("retry %d backoff %v exceeds cap %v (+jitter)", r, d, p.MaxBackoff)
		}
	}
	if p.Backoff(0, "PPS") != 0 {
		t.Fatalf("retry 0 has no backoff")
	}
}

func TestBreakerConsecutiveTripAndRecovery(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	pol := BreakerPolicy{ConsecutiveFailures: 3, OpenFor: 10 * time.Second, HalfOpenProbes: 1}
	b := NewBreaker("PPS", pol, now)

	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker must allow: %v", err)
		}
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("2 failures < 3 should stay closed")
	}
	b.Allow()
	from, to := b.Record(true)
	if from != BreakerClosed || to != BreakerOpen {
		t.Fatalf("3rd consecutive failure should trip: %v -> %v", from, to)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker should shed with ErrCircuitOpen, got %v", err)
	}

	clock = clock.Add(11 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("cooldown elapsed should be half-open, got %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open should admit one probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open should shed beyond the probe limit, got %v", err)
	}
	if _, to := b.Record(false); to != BreakerClosed {
		t.Fatalf("successful probe should close, got %v", to)
	}
	if b.Trips() != 1 {
		t.Fatalf("expected exactly 1 trip, got %d", b.Trips())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := time.Unix(0, 0)
	pol := BreakerPolicy{ConsecutiveFailures: 1, OpenFor: 5 * time.Second}
	b := NewBreaker("EDI", pol, func() time.Time { return clock })
	b.Allow()
	b.Record(true)
	clock = clock.Add(6 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe should be admitted: %v", err)
	}
	if _, to := b.Record(true); to != BreakerOpen {
		t.Fatalf("failed probe should reopen, got %v", to)
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	pol := BreakerPolicy{Window: 10, ErrorRate: 0.5, MinSamples: 10, OpenFor: time.Second}
	b := NewBreaker("PPS", pol, nil)
	// Alternate success/failure: 50% rate trips at the 10th sample.
	for i := 0; i < 10; i++ {
		if b.State() == BreakerOpen {
			break
		}
		b.Allow()
		b.Record(i%2 == 0)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("50%% error rate over full window should trip")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	roll := func() []int {
		in := NewInjector(7)
		in.Plan("PPS", FaultPlan{ErrorRate: 0.3})
		task := simlat.NewVirtualTask()
		var outcomes []int
		for i := 0; i < 40; i++ {
			if err := in.Inject(context.Background(), task, "PPS"); err != nil {
				outcomes = append(outcomes, 1)
				if !Transient(err) {
					t.Fatalf("injected error must be transient: %v", err)
				}
			} else {
				outcomes = append(outcomes, 0)
			}
		}
		return outcomes
	}
	a, b := roll(), roll()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must replay the same faults (call %d: %d vs %d)", i, a[i], b[i])
		}
	}
	fails := 0
	for _, o := range a {
		fails += o
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("30%% error rate should fail some but not all calls, got %d/%d", fails, len(a))
	}
}

func TestInjectorFlapSequence(t *testing.T) {
	in := NewInjector(1)
	in.Plan("EDI", FaultPlan{Flap: []bool{true, false, false}})
	task := simlat.NewVirtualTask()
	want := []bool{true, false, false, true, false, false}
	for i, w := range want {
		err := in.Inject(context.Background(), task, "EDI")
		if (err != nil) != w {
			t.Fatalf("flap call %d: want fail=%v, got err=%v", i, w, err)
		}
	}
}

func TestInjectorLatencySpikeChargesTask(t *testing.T) {
	in := NewInjector(3)
	in.Plan("PPS", FaultPlan{SlowRate: 1, Slow: 40 * simlat.PaperMS})
	task := simlat.NewVirtualTask()
	if err := in.Inject(context.Background(), task, "PPS"); err != nil {
		t.Fatalf("latency spike should not error: %v", err)
	}
	if task.Elapsed() != 40*simlat.PaperMS {
		t.Fatalf("spike should charge 40ms of virtual time, got %v", task.Elapsed())
	}
}

func TestInjectorHangHitsDeadline(t *testing.T) {
	in := NewInjector(5)
	in.Plan("PPS", FaultPlan{HangRate: 1})
	task := simlat.NewVirtualTask()
	ctx := WithDeadlineAt(context.Background(), 100*simlat.PaperMS)
	err := in.Inject(ctx, task, "PPS")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("hang under a deadline should resolve to ErrTimeout, got %v", err)
	}
	if !Transient(err) {
		t.Fatalf("hang should be transient (wrapped AppSysError)")
	}
	if el := task.Elapsed(); el > 120*simlat.PaperMS {
		t.Fatalf("hang should stop near the 100ms deadline, spent %v", el)
	}
}

func TestInjectorHangBoundedWithoutDeadline(t *testing.T) {
	in := NewInjector(5)
	in.Plan("PPS", FaultPlan{HangRate: 1, Hang: 200 * simlat.PaperMS})
	task := simlat.NewVirtualTask()
	err := in.Inject(context.Background(), task, "PPS")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("bounded hang should look like a timeout, got %v", err)
	}
	if task.Elapsed() != 200*simlat.PaperMS {
		t.Fatalf("unbounded-statement hang should burn exactly the plan bound, got %v", task.Elapsed())
	}
}

func okTable() *types.Table { return &types.Table{} }

func TestExecutorRetriesTransientFailures(t *testing.T) {
	pol := DefaultRetryPolicy()
	ex := NewExecutor(pol, BreakerPolicy{})
	task := simlat.NewVirtualTask()
	ctx, cnt := obs.WithStmtCounters(context.Background())
	calls := 0
	tbl, err := ex.Call(ctx, task, "PPS", func(context.Context) (*types.Table, error) {
		calls++
		if calls < 3 {
			return nil, &AppSysError{System: "PPS", Transient: true, Err: errors.New("flaky")}
		}
		return okTable(), nil
	})
	if err != nil || tbl == nil {
		t.Fatalf("3rd attempt should succeed: %v", err)
	}
	if calls != 3 {
		t.Fatalf("expected 3 attempts, got %d", calls)
	}
	if got := cnt.Snapshot().Retries; got != 2 {
		t.Fatalf("expected 2 retries recorded, got %d", got)
	}
	if task.Elapsed() == 0 {
		t.Fatalf("backoff should have charged virtual time")
	}
}

func TestExecutorDoesNotRetryPermanentErrors(t *testing.T) {
	ex := NewExecutor(DefaultRetryPolicy(), BreakerPolicy{})
	calls := 0
	_, err := ex.Call(context.Background(), simlat.NewVirtualTask(), "X",
		func(context.Context) (*types.Table, error) {
			calls++
			return nil, &AppSysError{System: "X", Transient: false, Err: errors.New("no such system")}
		})
	if err == nil || calls != 1 {
		t.Fatalf("permanent errors must not retry: calls=%d err=%v", calls, err)
	}
}

// TestBreakerIgnoresPermanentErrors: only transient failures and timeouts
// count toward tripping; a permanent error says nothing about the
// system's health, so more of them than the threshold leave the breaker
// closed and the next call goes through.
func TestBreakerIgnoresPermanentErrors(t *testing.T) {
	ex := NewExecutor(RetryPolicy{MaxAttempts: 1}, BreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Hour})
	ctx, cnt := obs.WithStmtCounters(context.Background())
	for i := 0; i < 5; i++ {
		ex.Call(ctx, simlat.NewVirtualTask(), "X", func(context.Context) (*types.Table, error) {
			return nil, &AppSysError{System: "X", Transient: false, Err: errors.New("no such function")}
		})
	}
	if st := ex.BreakerState("X"); st != BreakerClosed {
		t.Fatalf("5 permanent errors moved the breaker to %v, want closed", st)
	}
	if _, err := ex.Call(ctx, simlat.NewVirtualTask(), "X",
		func(context.Context) (*types.Table, error) { return okTable(), nil }); err != nil {
		t.Fatalf("call after permanent errors: %v", err)
	}
	if got := cnt.Snapshot(); got.BreakerTrips != 0 || got.Sheds != 0 {
		t.Fatalf("trips/sheds = %d/%d, want 0/0", got.BreakerTrips, got.Sheds)
	}
}

func TestExecutorHonorsRetryBudget(t *testing.T) {
	pol := DefaultRetryPolicy()
	pol.MaxAttempts = 5
	ex := NewExecutor(pol, BreakerPolicy{})
	ctx := WithBudget(context.Background(), NewBudget(1))
	calls := 0
	_, err := ex.Call(ctx, simlat.NewVirtualTask(), "PPS",
		func(context.Context) (*types.Table, error) {
			calls++
			return nil, &AppSysError{System: "PPS", Transient: true, Err: errors.New("flaky")}
		})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("budget of 1 allows exactly 1 retry (2 calls), got %d", calls)
	}
}

func TestExecutorBreakerShedsWithoutCalling(t *testing.T) {
	pol := BreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Hour}
	ex := NewExecutor(RetryPolicy{MaxAttempts: 1}, pol)
	task := simlat.NewVirtualTask()
	ctx, cnt := obs.WithStmtCounters(context.Background())
	fail := func(context.Context) (*types.Table, error) {
		return nil, &AppSysError{System: "PPS", Transient: true, Err: errors.New("down")}
	}
	ex.Call(ctx, task, "PPS", fail)
	ex.Call(ctx, task, "PPS", fail)
	if ex.BreakerState("PPS") != BreakerOpen {
		t.Fatalf("2 consecutive failures should trip, state=%v", ex.BreakerState("PPS"))
	}
	called := false
	_, err := ex.Call(ctx, task, "PPS",
		func(context.Context) (*types.Table, error) { called = true; return okTable(), nil })
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker should shed with ErrCircuitOpen, got %v", err)
	}
	if called {
		t.Fatalf("shed call must never reach the faulty system")
	}
	if got := cnt.Snapshot(); got.Sheds != 1 || got.BreakerTrips != 1 {
		t.Fatalf("expected 1 shed / 1 trip, got %d / %d", got.Sheds, got.BreakerTrips)
	}
	// A different system's breaker is independent.
	if ex.BreakerState("EDI") != BreakerClosed {
		t.Fatalf("breakers are per-system")
	}
}

func TestExecutorStopsRetryingPastDeadline(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 10, BaseBackoff: 30 * simlat.PaperMS, Multiplier: 1}
	ex := NewExecutor(pol, BreakerPolicy{})
	task := simlat.NewVirtualTask()
	ctx := WithDeadlineAt(context.Background(), 50*simlat.PaperMS)
	calls := 0
	_, err := ex.Call(ctx, task, "PPS", func(context.Context) (*types.Table, error) {
		calls++
		return nil, &AppSysError{System: "PPS", Transient: true, Err: errors.New("flaky")}
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline should cut the retry loop with ErrTimeout, got %v", err)
	}
	if calls >= 10 {
		t.Fatalf("deadline should stop retries early, got %d calls", calls)
	}
}

// TestExecutorCountsIntoStatement: the executor adds every retry, breaker
// trip and shed to the counters its context carries, against the system
// it guards, one entry per (kind, system) in first-seen order.
func TestExecutorCountsIntoStatement(t *testing.T) {
	ex := NewExecutor(RetryPolicy{MaxAttempts: 3}, BreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Hour})
	ctx, cnt := obs.WithStmtCounters(context.Background())
	task := simlat.NewVirtualTask()
	fail := func(context.Context) (*types.Table, error) {
		return nil, &AppSysError{System: "PPS", Transient: true, Err: errors.New("down")}
	}
	ex.Call(ctx, task, "PPS", fail) // 2 retries; trips on the 2nd failure, sheds the 3rd attempt
	ex.Call(ctx, task, "PPS", fail) // shed
	flaky := 0
	ex.Call(ctx, task, "EDI", func(context.Context) (*types.Table, error) {
		if flaky++; flaky == 1 {
			return nil, &AppSysError{System: "EDI", Transient: true, Err: errors.New("flaky")}
		}
		return okTable(), nil
	}) // 1 retry, then success
	got := cnt.Snapshot()
	want := []obs.FaultCount{
		{Kind: obs.FaultRetry, System: "PPS", N: 2},
		{Kind: obs.FaultBreakerTrip, System: "PPS", N: 1},
		{Kind: obs.FaultShed, System: "PPS", N: 2},
		{Kind: obs.FaultRetry, System: "EDI", N: 1},
	}
	if !reflect.DeepEqual(got.Faults, want) {
		t.Fatalf("faults = %+v, want %+v", got.Faults, want)
	}
	if got.Retries != 3 || got.BreakerTrips != 1 || got.Sheds != 2 || got.Timeouts != 0 {
		t.Fatalf("retries/trips/sheds/timeouts = %d/%d/%d/%d, want 3/1/2/0",
			got.Retries, got.BreakerTrips, got.Sheds, got.Timeouts)
	}
}

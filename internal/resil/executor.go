package resil

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// Executor composes the circuit breaker and the retry loop around one
// downstream application-system call. One Executor guards one client (the
// controller's shared appsys connection), holding a breaker per system.
type Executor struct {
	retry    RetryPolicy
	breakpol BreakerPolicy

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewExecutor builds an executor from the two policies. Either policy may
// be disabled (zero value) independently.
func NewExecutor(retry RetryPolicy, breaker BreakerPolicy) *Executor {
	return &Executor{
		retry:    retry,
		breakpol: breaker,
		breakers: make(map[string]*Breaker),
	}
}

// RetryPolicy returns the executor's retry policy.
func (e *Executor) RetryPolicy() RetryPolicy {
	if e == nil {
		return RetryPolicy{}
	}
	return e.retry
}

// breaker returns (lazily creating) the system's breaker, or nil when
// breaking is disabled.
func (e *Executor) breaker(system string) *Breaker {
	if e == nil || !e.breakpol.Enabled() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.breakers[system]
	if !ok {
		b = NewBreaker(system, e.breakpol, nil)
		e.breakers[system] = b
	}
	return b
}

// BreakerState reports the named system's breaker state (closed when
// breaking is disabled or the system has never been called).
func (e *Executor) BreakerState(system string) BreakerState {
	b := e.breaker(system)
	if b == nil {
		return BreakerClosed
	}
	return b.State()
}

// Call runs op under the system's breaker and the retry policy. A nil
// executor calls op once, unguarded. Retry attempts appear as resil.retry
// child spans; the final attempt count and any breaker transition are
// annotated on the enclosing span, so fed_spans shows the whole story. Each
// retry, breaker trip and shed is counted against the system in the
// obs.StmtCounters ctx carries.
func (e *Executor) Call(ctx context.Context, task *simlat.Task, system string,
	op func(context.Context) (*types.Table, error)) (*types.Table, error) {
	if e == nil {
		return op(ctx)
	}
	attempts := e.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := Check(ctx, task); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %w)", err, lastErr)
			}
			return nil, err
		}
		if br := e.breaker(system); br != nil {
			if err := br.Allow(); err != nil {
				obs.FromContext(ctx).AddFault(obs.FaultShed, system)
				obs.CurrentSpan(task).SetAttr("resil.shed", system)
				return nil, err
			}
		}

		var span *obs.Span
		if attempt > 1 {
			span = obs.StartSpan(task, "resil.retry",
				obs.Attr{Key: "system", Value: system},
				obs.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
		}
		tbl, err := op(ctx)
		if span != nil {
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End(task)
		}

		if br := e.breaker(system); br != nil {
			failed := err != nil && (Transient(err) || errors.Is(err, ErrTimeout))
			if from, to := br.Record(failed); from != to {
				if to == BreakerOpen {
					obs.FromContext(ctx).AddFault(obs.FaultBreakerTrip, system)
				}
				obs.CurrentSpan(task).SetAttr("resil.breaker."+system,
					from.String()+"->"+to.String())
			}
		}

		if err == nil {
			if attempt > 1 {
				obs.CurrentSpan(task).SetAttr("resil.attempts", strconv.Itoa(attempt))
			}
			return tbl, nil
		}
		lastErr = err
		if errors.Is(err, ErrTimeout) || !Transient(err) || attempt >= attempts {
			break
		}
		if !BudgetFrom(ctx).Take() {
			return nil, fmt.Errorf("resil: %w for %s: %w", ErrRetryBudgetExhausted, system, err)
		}
		backoff := e.retry.Backoff(attempt, system)
		obs.FromContext(ctx).AddFault(obs.FaultRetry, system)
		if backoff > 0 {
			task.Step(StepRetryBackoff, backoff)
		}
	}
	if lastErr != nil && attempts > 1 {
		obs.CurrentSpan(task).SetAttr("resil.attempts_exhausted", strconv.Itoa(attempts))
	}
	return nil, lastErr
}

package resil

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// Observer receives fault-handling events for metrics. All fields are
// optional; callbacks must be safe for concurrent use. The statement's own
// counts need no observer: the executor adds each event to the
// obs.StmtCounters its context carries.
type Observer struct {
	// OnRetry fires before each retry attempt's backoff is charged.
	OnRetry func(ctx context.Context, system string, attempt int, backoff time.Duration)
	// OnBreakerTransition fires on every breaker state change.
	OnBreakerTransition func(ctx context.Context, system string, from, to BreakerState)
	// OnShed fires when an open breaker rejects a call unexecuted.
	OnShed func(ctx context.Context, system string)
	// OnTimeout fires when a call gives up on a statement deadline.
	OnTimeout func(ctx context.Context, system string)
}

// Executor composes the circuit breaker and the retry loop around one
// downstream application-system call. One Executor guards one client (the
// controller's shared appsys connection), holding a breaker per system.
type Executor struct {
	retry    RetryPolicy
	breakpol BreakerPolicy

	mu       sync.Mutex
	breakers map[string]*Breaker
	observer Observer
	retries  int
	sheds    int
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

// SetObserver installs the metrics callbacks.
func (e *Executor) SetObserver(o Observer) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.observer = o
	e.mu.Unlock()
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

// Retries returns the total retry attempts made through this executor.
func (e *Executor) Retries() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.retries
}

// Sheds returns the total calls rejected by open breakers.
func (e *Executor) Sheds() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sheds
}

// Trips returns the total breaker trips across all systems.
func (e *Executor) Trips() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, b := range e.breakers {
		n += b.Trips()
	}
	return n
}

// Call runs op under the system's breaker and the retry policy. A nil
// executor calls op once, unguarded. Retry attempts appear as resil.retry
// child spans; the final attempt count and any breaker transition are
// annotated on the enclosing span, so /traces shows the whole story.
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
			e.noteTimeout(ctx, system, err)
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %w)", err, lastErr)
			}
			return nil, err
		}
		if br := e.breaker(system); br != nil {
			if err := br.Allow(); err != nil {
				e.mu.Lock()
				e.sheds++
				shed := e.observer.OnShed
				e.mu.Unlock()
				obs.FromContext(ctx).AddShed()
				if shed != nil {
					shed(ctx, system)
				}
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
				e.mu.Lock()
				trans := e.observer.OnBreakerTransition
				e.mu.Unlock()
				if to == BreakerOpen {
					obs.FromContext(ctx).AddBreakerTrip()
				}
				if trans != nil {
					trans(ctx, system, from, to)
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
		e.mu.Lock()
		e.retries++
		retryCB := e.observer.OnRetry
		e.mu.Unlock()
		obs.FromContext(ctx).AddRetry()
		if retryCB != nil {
			retryCB(ctx, system, attempt+1, backoff)
		}
		if backoff > 0 {
			task.Step(StepRetryBackoff, backoff)
		}
	}
	if lastErr != nil && attempts > 1 {
		obs.CurrentSpan(task).SetAttr("resil.attempts_exhausted", strconv.Itoa(attempts))
	}
	return nil, lastErr
}

// noteTimeout counts a deadline give-up and forwards it to the observer.
func (e *Executor) noteTimeout(ctx context.Context, system string, err error) {
	if !errors.Is(err, ErrTimeout) {
		return
	}
	obs.FromContext(ctx).AddTimeout()
	e.mu.Lock()
	cb := e.observer.OnTimeout
	e.mu.Unlock()
	if cb != nil {
		cb(ctx, system)
	}
}

// Session management and admission control for the serving front end.
//
// The paper's server runs one call at a time; the ROADMAP north star is a
// federation server under heavy multi-tenant traffic. The failure mode of
// a naive server there is unbounded queueing: every connection gets a
// goroutine, every request gets a slot, and the process collapses under
// memory pressure instead of degrading. Admission control inverts that:
// each tenant has a bounded number of concurrently executing statements
// and a bounded FIFO wait queue behind them; a request arriving beyond
// both is shed immediately with resil.ErrAppSysUnavailable — the same
// typed error an unreachable application system produces, because from
// the client's perspective the federation is the unavailable system.
package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
)

// DefaultTenant is the tenant requests are accounted under when the
// client's hello names none.
const DefaultTenant = "default"

// AdmissionPolicy bounds what one tenant may hold open and in flight.
// The zero value disables every limit (all requests run immediately).
type AdmissionPolicy struct {
	// MaxSessionsPerTenant caps concurrently open sessions (connections)
	// per tenant; 0 means unlimited. The excess is refused at the
	// handshake.
	MaxSessionsPerTenant int
	// MaxConcurrent caps concurrently executing requests per tenant; 0
	// means unlimited.
	MaxConcurrent int
	// QueueDepth bounds the per-tenant FIFO of requests waiting for an
	// execution slot; beyond it, requests are shed. 0 means no queue —
	// over-limit requests shed immediately.
	QueueDepth int
}

// AdmitOutcome is the policy decision for one arriving request.
type AdmitOutcome int

// The three decisions: run now, wait in the bounded queue, shed.
const (
	AdmitRun AdmitOutcome = iota
	AdmitQueue
	AdmitShed
)

// Classify is the pure admission decision given a tenant's current state:
// requests run while concurrency is under MaxConcurrent, wait while the
// queue is under QueueDepth, and shed beyond both. The live server and
// the deterministic serving simulation (experiment E16) share this one
// function, so measured shed behaviour is the deployed shed behaviour.
func (p AdmissionPolicy) Classify(running, queued int) AdmitOutcome {
	if p.MaxConcurrent <= 0 || running < p.MaxConcurrent {
		return AdmitRun
	}
	if queued < p.QueueDepth {
		return AdmitQueue
	}
	return AdmitShed
}

// AdmissionObserver receives session/admission lifecycle callbacks — the
// hook through which fdbs feeds the audit journal without rpc importing
// it. Nil fields are skipped.
type AdmissionObserver struct {
	OnSessionOpen   func(tenant, proto string)
	OnSessionClose  func(tenant string)
	OnSessionReject func(tenant string)
	OnQueued        func(tenant string)
	OnShed          func(tenant string)
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	sessions int
	running  int
	waiters  []chan struct{} // FIFO of queued requests
}

// Admission is the server's session manager and admission controller. A
// nil *Admission admits everything (methods are nil-receiver safe), so
// servers without one behave exactly as before.
type Admission struct {
	policy  AdmissionPolicy
	metrics *obs.ServingMetrics // nil ok
	hooks   AdmissionObserver

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// NewAdmission builds an admission controller. metrics may be nil; hooks
// fields may be nil.
func NewAdmission(policy AdmissionPolicy, metrics *obs.ServingMetrics, hooks AdmissionObserver) *Admission {
	return &Admission{policy: policy, metrics: metrics, hooks: hooks,
		tenants: make(map[string]*tenantState)}
}

// Policy returns the configured policy.
func (a *Admission) Policy() AdmissionPolicy {
	if a == nil {
		return AdmissionPolicy{}
	}
	return a.policy
}

// tenant returns (creating) the state for a tenant; callers hold a.mu.
func (a *Admission) tenant(name string) *tenantState {
	ts := a.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		a.tenants[name] = ts
	}
	return ts
}

// gc drops an idle tenant's state; callers hold a.mu.
func (a *Admission) gc(name string, ts *tenantState) {
	if ts.sessions == 0 && ts.running == 0 && len(ts.waiters) == 0 {
		delete(a.tenants, name)
	}
}

// OpenSession admits one session for the tenant, returning its release.
// Over the session quota it fails with resil.ErrAppSysUnavailable.
func (a *Admission) OpenSession(tenant, proto string) (func(), error) {
	if a == nil {
		return func() {}, nil
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	a.mu.Lock()
	ts := a.tenant(tenant)
	if a.policy.MaxSessionsPerTenant > 0 && ts.sessions >= a.policy.MaxSessionsPerTenant {
		a.gc(tenant, ts)
		a.mu.Unlock()
		if a.metrics != nil {
			a.metrics.SessionsRejected.With(tenant).Inc()
		}
		if a.hooks.OnSessionReject != nil {
			a.hooks.OnSessionReject(tenant)
		}
		return nil, fmt.Errorf("rpc: session quota (%d) exhausted for tenant %q: %w",
			a.policy.MaxSessionsPerTenant, tenant, resil.ErrAppSysUnavailable)
	}
	ts.sessions++
	a.mu.Unlock()
	if a.metrics != nil {
		a.metrics.SessionsOpen.With(tenant).Add(1)
		a.metrics.SessionsOpened.With(tenant, proto).Inc()
	}
	if a.hooks.OnSessionOpen != nil {
		a.hooks.OnSessionOpen(tenant, proto)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			ts.sessions--
			a.gc(tenant, ts)
			a.mu.Unlock()
			if a.metrics != nil {
				a.metrics.SessionsOpen.With(tenant).Add(-1)
			}
			if a.hooks.OnSessionClose != nil {
				a.hooks.OnSessionClose(tenant)
			}
		})
	}, nil
}

// Admit asks for an execution slot for one request of the tenant. It
// returns a release function once a slot is held; waits in the tenant's
// bounded FIFO when concurrency is exhausted; and fails immediately with
// resil.ErrAppSysUnavailable when the queue is full too (load shedding —
// the server prefers a fast typed refusal over unbounded queueing).
// Cancelling ctx abandons the wait. Releasing more than once releases once.
func (a *Admission) Admit(ctx context.Context, tenant string) (func(), error) {
	if a == nil {
		return func() {}, nil
	}
	if err := a.acquire(ctx, tenant); err != nil {
		return nil, err
	}
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			a.release(tenant)
		}
	}, nil
}

// acquire is Admit without the release function: on a nil error the
// caller holds a slot and owes exactly one release. The server's request
// path pairs the two itself, so serving a request allocates nothing here.
func (a *Admission) acquire(ctx context.Context, tenant string) error {
	if a == nil {
		return nil
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	a.mu.Lock()
	ts := a.tenant(tenant)
	switch a.policy.Classify(ts.running, len(ts.waiters)) {
	case AdmitRun:
		ts.running++
		a.mu.Unlock()
		if a.metrics != nil {
			a.metrics.AdmissionAdmitted.With(tenant).Inc()
		}
		return nil
	case AdmitShed:
		a.gc(tenant, ts)
		a.mu.Unlock()
		if a.metrics != nil {
			a.metrics.AdmissionShed.With(tenant).Inc()
		}
		if a.hooks.OnShed != nil {
			a.hooks.OnShed(tenant)
		}
		return fmt.Errorf("rpc: admission queue full (%d running, %d queued) for tenant %q: %w",
			a.policy.MaxConcurrent, a.policy.QueueDepth, tenant, resil.ErrAppSysUnavailable)
	}
	// Queue: wait for a slot hand-off in FIFO order.
	slot := make(chan struct{})
	ts.waiters = append(ts.waiters, slot)
	a.mu.Unlock()
	if a.metrics != nil {
		a.metrics.AdmissionQueued.With(tenant).Inc()
		a.metrics.AdmissionQueueDepth.With(tenant).Add(1)
	}
	if a.hooks.OnQueued != nil {
		a.hooks.OnQueued(tenant)
	}
	// The queue wait is real serving time, read from the stopwatch.
	waitMeter := simlat.StartStopwatch()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-slot:
		// The releasing request handed its slot over; running already
		// counts this request.
		if a.metrics != nil {
			a.metrics.AdmissionQueueDepth.With(tenant).Add(-1)
			a.metrics.AdmissionQueueWaitMS.Observe(float64(waitMeter.Elapsed()) / float64(time.Millisecond))
			a.metrics.AdmissionAdmitted.With(tenant).Inc()
		}
		return nil
	case <-done:
		a.mu.Lock()
		removed := false
		for i, w := range ts.waiters {
			if w == slot {
				ts.waiters = append(ts.waiters[:i], ts.waiters[i+1:]...)
				removed = true
				break
			}
		}
		a.gc(tenant, ts)
		a.mu.Unlock()
		if a.metrics != nil {
			a.metrics.AdmissionQueueDepth.With(tenant).Add(-1)
		}
		if !removed {
			// The hand-off raced the cancellation: a slot is already ours,
			// give it back.
			a.release(tenant)
		}
		return ctx.Err()
	}
}

// release gives back one held slot: it hands the slot to the oldest
// waiter if any (the waiter's running count carries over), else retires it.
func (a *Admission) release(tenant string) {
	if a == nil {
		return
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	a.mu.Lock()
	ts := a.tenant(tenant)
	if len(ts.waiters) > 0 {
		slot := ts.waiters[0]
		ts.waiters = ts.waiters[1:]
		a.mu.Unlock()
		close(slot)
		return
	}
	ts.running--
	a.gc(tenant, ts)
	a.mu.Unlock()
}

package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fedwf/internal/resil"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		policy          AdmissionPolicy
		running, queued int
		want            AdmitOutcome
	}{
		// No limits: everything runs.
		{AdmissionPolicy{}, 1000, 0, AdmitRun},
		// Under the concurrency cap: run.
		{AdmissionPolicy{MaxConcurrent: 4}, 3, 0, AdmitRun},
		// At the cap with queue room: queue.
		{AdmissionPolicy{MaxConcurrent: 4, QueueDepth: 2}, 4, 1, AdmitQueue},
		// At the cap, queue full: shed.
		{AdmissionPolicy{MaxConcurrent: 4, QueueDepth: 2}, 4, 2, AdmitShed},
		// No queue configured: over-cap sheds immediately.
		{AdmissionPolicy{MaxConcurrent: 1}, 1, 0, AdmitShed},
	}
	for i, c := range cases {
		if got := c.policy.Classify(c.running, c.queued); got != c.want {
			t.Errorf("case %d: Classify(%d, %d) = %v, want %v", i, c.running, c.queued, got, c.want)
		}
	}
}

func TestNilAdmissionAdmitsEverything(t *testing.T) {
	var a *Admission
	closeSession, err := a.OpenSession("any", "framed")
	if err != nil {
		t.Fatal(err)
	}
	closeSession()
	release, err := a.Admit(context.Background(), "any")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if got := a.Policy(); got != (AdmissionPolicy{}) {
		t.Errorf("nil admission policy = %+v", got)
	}
}

func TestSessionQuota(t *testing.T) {
	a := NewAdmission(AdmissionPolicy{MaxSessionsPerTenant: 2}, nil, AdmissionObserver{})
	close1, err := a.OpenSession("acme", "framed")
	if err != nil {
		t.Fatal(err)
	}
	close2, err := a.OpenSession("acme", "framed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenSession("acme", "framed"); !errors.Is(err, resil.ErrAppSysUnavailable) {
		t.Fatalf("third session = %v, want ErrAppSysUnavailable", err)
	}
	// Another tenant is unaffected.
	closeOther, err := a.OpenSession("globex", "framed")
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	closeOther()
	// Releasing frees the quota; double-release must not free it twice.
	close1()
	close1()
	close3, err := a.OpenSession("acme", "framed")
	if err != nil {
		t.Fatalf("session after release rejected: %v", err)
	}
	close3()
	close2()
}

// TestAdmitShedsBeyondCapacity is the synchronous core of load shedding:
// with the cap held and no queue, Admit fails immediately and typed.
func TestAdmitShedsBeyondCapacity(t *testing.T) {
	a := NewAdmission(AdmissionPolicy{MaxConcurrent: 2}, nil, AdmissionObserver{})
	ctx := context.Background()
	r1, err := a.Admit(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Admit(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(ctx, "acme"); !errors.Is(err, resil.ErrAppSysUnavailable) {
		t.Fatalf("over-cap admit = %v, want ErrAppSysUnavailable", err)
	}
	// Per-tenant: a different tenant still runs.
	rOther, err := a.Admit(ctx, "globex")
	if err != nil {
		t.Fatalf("other tenant shed: %v", err)
	}
	rOther()
	r1()
	r3, err := a.Admit(ctx, "acme")
	if err != nil {
		t.Fatalf("admit after release shed: %v", err)
	}
	r3()
	r2()
}

// TestOverQuotaTenantShedsWhileInQuotaCompletes runs the admission
// controller under -race with real goroutine concurrency: a greedy tenant
// saturates its slot and every further request of it is shed typed, while
// another tenant's statements all complete.
func TestOverQuotaTenantShedsWhileInQuotaCompletes(t *testing.T) {
	a := NewAdmission(AdmissionPolicy{MaxConcurrent: 1}, nil, AdmissionObserver{})
	holding := make(chan struct{})
	releaseHold := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		release, err := a.Admit(context.Background(), "greedy")
		if err != nil {
			t.Errorf("greedy holder: %v", err)
			return
		}
		close(holding)
		<-releaseHold
		release()
	}()
	<-holding // the greedy slot is definitely held from here on

	var sheds, completed sync.WaitGroup
	for i := 0; i < 8; i++ {
		sheds.Add(1)
		go func() {
			defer sheds.Done()
			if _, err := a.Admit(context.Background(), "greedy"); !errors.Is(err, resil.ErrAppSysUnavailable) {
				t.Errorf("greedy over-quota admit = %v, want ErrAppSysUnavailable", err)
			}
		}()
	}
	// The polite tenant pipelines its statements one at a time (its own
	// cap is also 1), concurrently with the greedy shed storm.
	completed.Add(1)
	go func() {
		defer completed.Done()
		for i := 0; i < 8; i++ {
			r, err := a.Admit(context.Background(), "polite")
			if err != nil {
				t.Errorf("polite tenant shed while under quota: %v", err)
				return
			}
			r()
		}
	}()
	sheds.Wait()
	completed.Wait()
	close(releaseHold)
	wg.Wait()
	// With the greedy slot gone, the tenant admits again.
	r, err := a.Admit(context.Background(), "greedy")
	if err != nil {
		t.Fatalf("greedy admit after drain: %v", err)
	}
	r()
}

// TestAdmitQueueFIFOHandOff: queued requests receive slots in arrival
// order, and the hand-off carries the running count (release of a holder
// admits exactly one waiter).
func TestAdmitQueueFIFOHandOff(t *testing.T) {
	queued := make(chan string, 2)
	a := NewAdmission(AdmissionPolicy{MaxConcurrent: 1, QueueDepth: 2}, nil,
		AdmissionObserver{OnQueued: func(tenant string) { queued <- tenant }})
	holder, err := a.Admit(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	type admitted struct {
		name    string
		release func()
	}
	got := make(chan admitted, 2)
	enqueue := func(name string) {
		go func() {
			r, err := a.Admit(context.Background(), "acme")
			if err != nil {
				t.Errorf("queued admit %s: %v", name, err)
				return
			}
			got <- admitted{name, r}
		}()
		<-queued // deterministic FIFO order: wait until this one is in line
	}
	enqueue("first")
	enqueue("second")
	// The queue is full now: a further request sheds.
	if _, err := a.Admit(context.Background(), "acme"); !errors.Is(err, resil.ErrAppSysUnavailable) {
		t.Fatalf("admit with full queue = %v, want ErrAppSysUnavailable", err)
	}
	holder() // hand the slot to the oldest waiter
	a1 := <-got
	if a1.name != "first" {
		t.Fatalf("slot handed to %q, want %q", a1.name, "first")
	}
	select {
	case a2 := <-got:
		t.Fatalf("second waiter %q admitted while the slot is held", a2.name)
	default:
	}
	a1.release()
	a2 := <-got
	if a2.name != "second" {
		t.Fatalf("slot handed to %q, want %q", a2.name, "second")
	}
	a2.release()
}

// TestAdmitCancelWhileQueued: cancelling a queued request abandons the
// wait without corrupting the accounting — the slot still reaches later
// arrivals.
func TestAdmitCancelWhileQueued(t *testing.T) {
	queued := make(chan string, 1)
	a := NewAdmission(AdmissionPolicy{MaxConcurrent: 1, QueueDepth: 1}, nil,
		AdmissionObserver{OnQueued: func(tenant string) { queued <- tenant }})
	holder, err := a.Admit(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Admit(ctx, "acme")
		errc <- err
	}()
	<-queued
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued admit = %v, want context.Canceled", err)
	}
	// The abandoned waiter left the queue: release hands the slot to
	// nobody, so a fresh admit runs immediately.
	holder()
	r, err := a.Admit(context.Background(), "acme")
	if err != nil {
		t.Fatalf("admit after cancelled waiter: %v", err)
	}
	r()
}

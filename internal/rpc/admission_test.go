package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fedwf/internal/obs"
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

// TestAdmitReleaseIsIdempotent: releasing a slot twice frees it once, so
// the cap still holds afterwards, and a second release of a slot handed
// to a waiter does not hand the waiter's slot on again.
func TestAdmitReleaseIsIdempotent(t *testing.T) {
	a := NewAdmission(AdmissionPolicy{MaxConcurrent: 1}, nil, AdmissionObserver{})
	r1, err := a.Admit(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	r1()
	r1()
	r2, err := a.Admit(context.Background(), "acme")
	if err != nil {
		t.Fatalf("admit after a double release: %v", err)
	}
	if _, err := a.Admit(context.Background(), "acme"); !errors.Is(err, resil.ErrAppSysUnavailable) {
		t.Fatalf("admit beyond the cap after a double release = %v, want ErrAppSysUnavailable", err)
	}

	queued := make(chan string, 1)
	q := NewAdmission(AdmissionPolicy{MaxConcurrent: 1, QueueDepth: 1}, nil,
		AdmissionObserver{OnQueued: func(tenant string) { queued <- tenant }})
	holder, err := q.Admit(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	waiter := make(chan func(), 1)
	go func() {
		r, err := q.Admit(context.Background(), "acme")
		if err != nil {
			t.Errorf("queued admit: %v", err)
			r = func() {}
		}
		waiter <- r
	}()
	<-queued
	holder()
	w := <-waiter
	holder()
	// The waiter holds the one slot, so a request whose context is already
	// cancelled queues and gives up instead of running.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Admit(cancelled, "acme"); !errors.Is(err, context.Canceled) {
		t.Fatalf("admit while the waiter holds the slot = %v, want context.Canceled", err)
	}
	w()
	r2()
}

// TestServedAdmissionDoesNotAllocate: a served request takes and gives
// back its slot without a release function, so admission adds no
// allocation to a request that runs at once on an open session.
func TestServedAdmissionDoesNotAllocate(t *testing.T) {
	a := NewAdmission(AdmissionPolicy{MaxConcurrent: 64, QueueDepth: 64},
		obs.NewServingMetrics(obs.NewRegistry()), AdmissionObserver{})
	closeSession, err := a.OpenSession("acme", "framed")
	if err != nil {
		t.Fatal(err)
	}
	defer closeSession()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.acquire(ctx, "acme"); err != nil {
			t.Fatal(err)
		}
		a.release("acme")
	})
	if allocs != 0 {
		t.Errorf("admitting a served request allocates %.1f times, want 0", allocs)
	}
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

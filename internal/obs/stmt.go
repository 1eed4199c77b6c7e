package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Statement is one finished statement as the serving layer saw it — the
// one record every per-statement store folds: the statistics warehouse,
// the audit journal, the trace collector, the slow-query log and the
// server's metrics. The serving layer fills it once, on its stack; the
// stores read it and keep none of it by reference.
type Statement struct {
	TraceID string
	SQL     string
	Arch    string
	// Err is the error text and Class its resil taxonomy class; both are
	// empty when the statement succeeded.
	Err   string
	Class string
	// Paper and Wall are the statement's virtual and wall latencies.
	Paper time.Duration
	Wall  time.Duration
	// Rows is the result row count (0 on error); Partial marks a result
	// with degraded optional branches.
	Rows    int
	Partial bool

	CacheHits      int
	CacheMisses    int
	CacheCoalesced int

	// Counters are the execution-shape counts the stack made along the
	// statement's context.
	Counters CounterSnapshot
	// Calls are the federated calls found in the span tree rooted at Root.
	Calls []FedCall
	Root  *Span
	// Forced marks a trace the caller sampled, which the collector keeps.
	Forced bool
}

// StmtCounters ride the statement context through the whole stack, and
// each layer counts what it does where it does it: the RPC client its
// wire requests and timed-out requests, the workflow engine its instances,
// their activities and their audit trails, the resilience executor its
// retries, breaker trips and sheds, the lateral operator its flushed
// chunks. The serving layer
// snapshots the totals into its Statement when the statement finishes.
// Carrying the counters on the context — rather than diffing process-wide
// counters — keeps concurrent statements from bleeding into each other's
// numbers. All methods are safe on a nil receiver, so instrumented code
// paths need no "is a statement being counted?" checks.
type StmtCounters struct {
	rpcs       atomic.Int64
	instances  atomic.Int64
	activities atomic.Int64
	batchCalls atomic.Int64
	batchRows  atomic.Int64
	batchSlots atomic.Int64

	// faults holds one entry per (kind, system) seen, so its size is
	// bounded by kinds × systems however many faults the statement meets.
	mu     sync.Mutex
	faults []FaultCount
	// trail holds the finished workflow instances in finish order; trail0
	// backs it while the statement has run one, so the common
	// one-instance statement allocates nothing for it.
	trail  []*WorkflowInstance
	trail0 [1]*WorkflowInstance
}

// AuditEvent is one entry of a workflow process instance's audit trail.
type AuditEvent struct {
	At    time.Duration // virtual instant within the statement
	Node  string
	Event string // "started", "completed", "skipped", "iteration"
	Rows  int
	// Row is the in-chunk row index the entry is attributable to when the
	// instance absorbed a batch; -1 means the entry covers the whole
	// instance.
	Row int
}

// WorkflowInstance is one finished workflow process instance, the record
// its statement's audit journal writes the instance and its trail from.
type WorkflowInstance struct {
	// Seq numbers the instance over its engine's lifetime (1-based).
	Seq     uint64
	Process string
	// Batch is the number of input rows the instance absorbed.
	Batch int
	// Activities counts its executed (not skipped) activities, Rows its
	// output rows; Err is the error text of a failed instance.
	Activities int
	Rows       int
	Err        string
	// Start is the instant within the statement the instance began and
	// Dur its simulated duration.
	Start, Dur time.Duration
	Audit      []AuditEvent
}

// FaultKind names one fault-handling event counted against an
// application system.
type FaultKind uint8

// The counted fault kinds.
const (
	// FaultRetry is one retry attempt.
	FaultRetry FaultKind = iota
	// FaultBreakerTrip is one circuit-breaker trip (transition to open).
	FaultBreakerTrip
	// FaultShed is one call rejected unexecuted by an open breaker.
	FaultShed
	// FaultTimeout is one application-system request abandoned on the
	// statement deadline.
	FaultTimeout
)

// FaultCount is how many faults of one kind a statement met against one
// application system (the breaker's key: the system, else "fn:"+function).
type FaultCount struct {
	Kind   FaultKind
	System string
	N      int64
}

type stmtCountersKey struct{}

// WithStmtCounters attaches a fresh counter set to ctx and returns both.
func WithStmtCounters(ctx context.Context) (context.Context, *StmtCounters) {
	c := &StmtCounters{}
	return context.WithValue(ctx, stmtCountersKey{}, c), c
}

// FromContext returns the statement's counters, or nil when the context
// carries none (untracked execution).
func FromContext(ctx context.Context) *StmtCounters {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(stmtCountersKey{}).(*StmtCounters)
	return c
}

// AddRPC counts one application-system wire request (a batched call of N
// rows is ONE request).
func (c *StmtCounters) AddRPC() {
	if c != nil {
		c.rpcs.Add(1)
	}
}

// AddInstance counts one started workflow process instance.
func (c *StmtCounters) AddInstance() {
	if c != nil {
		c.instances.Add(1)
	}
}

// AddActivity counts one executed workflow activity.
func (c *StmtCounters) AddActivity() {
	if c != nil {
		c.activities.Add(1)
	}
}

// AddFault counts one fault of the given kind against system.
func (c *StmtCounters) AddFault(kind FaultKind, system string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.faults {
		if f := &c.faults[i]; f.Kind == kind && f.System == system {
			f.N++
			return
		}
	}
	c.faults = append(c.faults, FaultCount{Kind: kind, System: system, N: 1})
}

// FinishInstance hands the statement one finished workflow instance. The
// record is kept by reference: its owner writes no more to it.
func (c *StmtCounters) FinishInstance(in *WorkflowInstance) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.trail == nil {
		c.trail = c.trail0[:0]
	}
	c.trail = append(c.trail, in)
	c.mu.Unlock()
}

// AddBatch counts one flushed set-oriented chunk: rows is the chunk's
// actual row count, slots the policy's row capacity (the count trigger;
// rows when the policy has no row bound). Fill ratio aggregates as
// sum(rows)/sum(slots).
func (c *StmtCounters) AddBatch(rows, slots int) {
	if c == nil {
		return
	}
	if slots < rows {
		slots = rows
	}
	c.batchCalls.Add(1)
	c.batchRows.Add(int64(rows))
	c.batchSlots.Add(int64(slots))
}

// CounterSnapshot is the counter values at one instant. Faults lists the
// fault counts per (kind, system) in first-seen order; Retries,
// BreakerTrips, Sheds and Timeouts are its sums per kind. Trail lists the
// finished workflow instances in finish order.
type CounterSnapshot struct {
	RPCs, Instances, Activities            int64
	Retries, BreakerTrips, Sheds, Timeouts int64
	BatchCalls, BatchRows, BatchSlots      int64
	Faults                                 []FaultCount
	Trail                                  []*WorkflowInstance
}

// Snapshot reads all counters; a nil receiver reads zeros.
func (c *StmtCounters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	s := CounterSnapshot{
		RPCs:       c.rpcs.Load(),
		Instances:  c.instances.Load(),
		Activities: c.activities.Load(),
		BatchCalls: c.batchCalls.Load(),
		BatchRows:  c.batchRows.Load(),
		BatchSlots: c.batchSlots.Load(),
	}
	c.mu.Lock()
	s.Faults = append([]FaultCount(nil), c.faults...)
	// Instances are only ever appended, so the snapshot shares the slice.
	s.Trail = c.trail
	c.mu.Unlock()
	var sum [FaultTimeout + 1]int64
	for _, f := range s.Faults {
		sum[f.Kind] += f.N
	}
	s.Retries, s.BreakerTrips, s.Sheds, s.Timeouts = sum[FaultRetry], sum[FaultBreakerTrip], sum[FaultShed], sum[FaultTimeout]
	return s
}

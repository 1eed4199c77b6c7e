// Package journal is the federation's audit journal: a bounded,
// lock-sharded ring of wide events on the virtual clock. Every statement,
// federated call, retry/breaker/shed decision, workflow instance, and
// activity transition is one structured event, so the server can explain
// its own recent behavior — queryable through the fed_audit_events,
// fed_wf_instances, fed_wf_activities and fed_slo virtual tables, the last
// read from the SLO burn-rate monitor in slo.go.
//
// The journal keeps its own virtual clock: AppendStatement stamps each
// finished statement with the federation-wide instant and folds its
// simulated duration into it, Advance adds idle time, and every event
// records its absolute virtual start and duration on that clock. Ordering
// therefore never reads wall time (rule virtualclock), and a journal filled
// by a deterministic workload is itself deterministic.
//
// The journal stores events and derives nothing at append: the burn rates
// and the ring gauges are computed from the stored events when read.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedwf/internal/obs"
)

// Kind classifies a journal event. Event kinds form a closed enum — the
// fedlint eventkind rule rejects raw string literals of type Kind outside
// this package, so every producer names one of these constants.
type Kind string

// The declared event kinds.
const (
	// KindStatement is one served SQL statement.
	KindStatement Kind = "statement"
	// KindCall is one federated-function invocation within a statement.
	KindCall Kind = "call"
	// KindRetry is one retry attempt against an application system.
	KindRetry Kind = "retry"
	// KindBreaker is a circuit-breaker trip (transition to open).
	KindBreaker Kind = "breaker"
	// KindShed is a call rejected unexecuted by an open breaker.
	KindShed Kind = "shed"
	// KindTimeout is a call abandoned on the statement deadline.
	KindTimeout Kind = "timeout"
	// KindInstance is one finished workflow process instance.
	KindInstance Kind = "wf_instance"
	// KindActivity is one workflow activity transition
	// (started/completed/skipped/iteration).
	KindActivity Kind = "wf_activity"
	// KindSession is a serving-session lifecycle transition
	// (open/close/reject) of the high-concurrency front end.
	KindSession Kind = "session"
)

var kinds = [...]Kind{KindStatement, KindCall, KindRetry, KindBreaker,
	KindShed, KindTimeout, KindInstance, KindActivity, KindSession}

// Kinds returns the declared enum in a fixed order.
func Kinds() []Kind { return append([]Kind(nil), kinds[:]...) }

// index is k's position in Kinds, or -1 for a kind outside the enum.
func (k Kind) index() int {
	for i, d := range kinds {
		if d == k {
			return i
		}
	}
	return -1
}

// Event is one wide journal event. Fields that do not apply to a kind stay
// zero; Row is -1 unless the event is scoped to one row of a batched
// workflow chunk. StartVT and DurVT are on the journal's federation-wide
// virtual clock (absolute start, simulated duration).
type Event struct {
	Seq         uint64 `json:"seq"` // monotonic, assigned by Append
	Kind        Kind   `json:"kind"`
	TraceID     string `json:"trace_id,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"` // statement fingerprint
	Arch        string `json:"arch,omitempty"`
	Func        string `json:"func,omitempty"`     // federated function, app system, or process
	Class       string `json:"class,omitempty"`    // resil taxonomy class
	Instance    string `json:"instance,omitempty"` // workflow instance id
	Node        string `json:"node,omitempty"`     // activity node
	Detail      string `json:"detail,omitempty"`   // started/completed/skipped/iteration/...
	Row         int    `json:"row"`                // in-chunk row index; -1 = not row-scoped
	Rows        int    `json:"rows"`
	Batch       int    `json:"batch,omitempty"`      // input rows of a batched instance
	Activities  int    `json:"activities,omitempty"` // executed activities of an instance
	RPCs        int64  `json:"rpcs,omitempty"`       // statement events: wire requests
	Instances   int64  `json:"instances,omitempty"`  // statement events: started instances
	Err         string `json:"error,omitempty"`

	StartVT time.Duration `json:"start_vt_ns"` // absolute virtual start (integer ns)
	DurVT   time.Duration `json:"dur_vt_ns"`   // simulated duration (integer ns)
}

// Options configures a Journal.
type Options struct {
	// Capacity bounds the ring; the oldest events are dropped when a new
	// event would exceed it. 0 means the default of 4096. Rounded up to a
	// multiple of the shard count so eviction stays exactly oldest-first.
	Capacity int
}

const (
	defaultCapacity = 4096
	// numShards spreads appends over independent locks; events land on the
	// shard seq mod numShards, each in the slot its sequence number names,
	// and a slot keeps the newer of two events, so once appends settle the
	// union of per-shard rings is a contiguous suffix of the sequence
	// numbers.
	numShards = 8
)

type shard struct {
	mu  sync.Mutex
	buf []Event // ring of perShard slots; Seq 0 marks an empty slot
	n   int     // filled slots
}

// Journal is the bounded audit-event store. All methods are safe for
// concurrent use.
type Journal struct {
	perShard int
	shards   [numShards]shard

	seq     atomic.Uint64 // last assigned sequence number (events are 1-based)
	dropped atomic.Int64
	vclock  atomic.Int64 // federation-wide virtual instant (integer ns; no wall time)

	sinkOn  atomic.Bool // a sink is set; Append skips sinkMu without one
	sinkMu  sync.Mutex
	sink    *bufio.Writer
	sinkErr error

	obj atomic.Pointer[Objectives] // nil until SetObjectives

	// Optional registry series, resolved once by AttachMetrics.
	mEvents  *obs.CounterVec
	mKinds   [len(kinds)]*obs.Counter
	mDropped *obs.Counter
}

// New returns an empty journal.
func New(opt Options) *Journal {
	capacity := opt.Capacity
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	j := &Journal{perShard: per}
	for i := range j.shards {
		j.shards[i].buf = make([]Event, per)
	}
	return j
}

// Capacity returns the effective ring bound.
func (j *Journal) Capacity() int { return j.perShard * numShards }

// Append assigns the event its sequence number, stores it (dropping the
// shard's oldest event when full), mirrors it to the JSONL sink, and
// returns the assigned sequence number. The event keeps the start its
// caller stamped; AppendStatement stamps a statement from the journal
// clock.
func (j *Journal) Append(e Event) uint64 {
	seq := j.store(&e)
	if j.sinkOn.Load() {
		j.writeSink(e)
	}
	return seq
}

// AppendStatement appends one finished statement: its statement event,
// stamped with the fingerprint and started at the journal's current
// instant, which advances by the statement's paper time; then one KindCall
// event per federated call; then one event per fault the statement met
// (retry, breaker trip, shed, timeout; Func is the application system);
// then, per finished workflow instance, one KindActivity event per entry
// of its audit trail and its KindInstance event. Every event carries the
// statement's trace id, and each starts at the statement's start plus its
// offset within the statement (a fault at the statement's start).
func (j *Journal) AppendStatement(st *obs.Statement, fingerprint string) {
	d := max(st.Paper, 0)
	start := time.Duration(j.vclock.Add(int64(d))) - d
	j.Append(Event{
		Kind:        KindStatement,
		TraceID:     st.TraceID,
		Fingerprint: fingerprint,
		Arch:        st.Arch,
		Class:       st.Class,
		Row:         -1,
		Rows:        st.Rows,
		RPCs:        st.Counters.RPCs,
		Instances:   st.Counters.Instances,
		Err:         st.Err,
		StartVT:     start,
		DurVT:       st.Paper,
	})
	for _, c := range st.Calls {
		j.Append(Event{Kind: KindCall, TraceID: st.TraceID, Fingerprint: fingerprint, Arch: st.Arch,
			Func: c.Fn, Row: -1, StartVT: start + c.Start, DurVT: c.Elapsed})
	}
	for _, f := range st.Counters.Faults {
		fe := faultEvents[f.Kind]
		fe.TraceID, fe.Func, fe.Row, fe.StartVT = st.TraceID, f.System, -1, start
		for n := f.N; n > 0; n-- {
			j.Append(fe)
		}
	}
	for _, in := range st.Counters.Trail {
		id := fmt.Sprintf("wf-%06d", in.Seq)
		for _, a := range in.Audit {
			j.Append(Event{Kind: KindActivity, TraceID: st.TraceID, Instance: id, Node: a.Node,
				Detail: a.Event, Row: a.Row, Rows: a.Rows, StartVT: start + a.At})
		}
		j.Append(Event{Kind: KindInstance, TraceID: st.TraceID, Instance: id, Func: in.Process,
			Batch: in.Batch, Activities: in.Activities, Row: -1, Rows: in.Rows, Err: in.Err,
			StartVT: start + in.Start, DurVT: in.Dur})
	}
}

// faultEvents is the event each counted fault kind appends.
var faultEvents = [...]Event{
	obs.FaultRetry:       {Kind: KindRetry},
	obs.FaultBreakerTrip: {Kind: KindBreaker, Detail: "open", Class: "circuit_open"},
	obs.FaultShed:        {Kind: KindShed, Class: "circuit_open"},
	obs.FaultTimeout:     {Kind: KindTimeout, Class: "timeout"},
}

// store assigns e its sequence number and writes it into its slot, which
// keeps the newer event: an append delayed past a whole ring's worth of
// later appends finds its slot taken by a newer event, and is dropped
// instead of overwriting it. A taken slot costs one dropped event either
// way, the evicted older one or the late one itself.
func (j *Journal) store(e *Event) uint64 {
	seq := j.seq.Add(1)
	e.Seq = seq
	sh := &j.shards[seq%numShards]
	slot := &sh.buf[int((seq-1)/numShards)%j.perShard]
	sh.mu.Lock()
	if slot.Seq == 0 {
		sh.n++
	} else {
		j.dropped.Add(1)
		j.mDropped.Inc()
	}
	if slot.Seq < seq {
		*slot = *e
	}
	sh.mu.Unlock()

	if j.mEvents != nil {
		if i := e.Kind.index(); i >= 0 {
			j.mKinds[i].Inc()
		} else {
			j.mEvents.With(string(e.Kind)).Inc()
		}
	}
	return seq
}

// Len returns the number of live events in the ring.
func (j *Journal) Len() int {
	n := 0
	for i := range j.shards {
		j.shards[i].mu.Lock()
		n += j.shards[i].n
		j.shards[i].mu.Unlock()
	}
	return n
}

// Dropped returns how many events the ring has evicted since construction.
// Snapshot sequence numbers are contiguous, so consumers can verify no
// event vanished unreported: maxSeq - minSeq + 1 + dropped == maxSeq.
func (j *Journal) Dropped() int64 { return j.dropped.Load() }

// Seq returns the last assigned sequence number (0 before any event).
func (j *Journal) Seq() uint64 { return j.seq.Load() }

// Snapshot copies the live events in ascending sequence order. Shards are
// locked one at a time, so concurrent appends are never blocked behind a
// full scan; the result is a consistent suffix up to racing tail appends.
func (j *Journal) Snapshot() []Event {
	out := make([]Event, 0, j.Len())
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.Lock()
		for k := range sh.buf {
			if sh.buf[k].Seq != 0 {
				out = append(out, sh.buf[k])
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Now returns the federation-wide virtual instant: the accumulated
// simulated time of every statement and idle period folded in.
func (j *Journal) Now() time.Duration { return time.Duration(j.vclock.Load()) }

// Advance moves the federation-wide virtual clock forward by d — idle time
// between statements, which experiments use to spread a workload over
// virtual time.
func (j *Journal) Advance(d time.Duration) {
	if d > 0 {
		j.vclock.Add(int64(d))
	}
}

// SetSink mirrors every appended event to w as one JSON line. The writer
// is buffered; Flush (wired into the graceful-shutdown drain) pushes the
// tail out. A nil w removes the sink.
func (j *Journal) SetSink(w io.Writer) {
	j.sinkMu.Lock()
	defer j.sinkMu.Unlock()
	if w == nil {
		j.sink = nil
	} else {
		j.sink = bufio.NewWriter(w)
	}
	j.sinkOn.Store(j.sink != nil)
}

// Flush drains the JSONL sink's buffer and reports the first write error
// the sink encountered, if any.
func (j *Journal) Flush() error {
	j.sinkMu.Lock()
	defer j.sinkMu.Unlock()
	if j.sink != nil {
		if err := j.sink.Flush(); err != nil && j.sinkErr == nil {
			j.sinkErr = err
		}
	}
	return j.sinkErr
}

// writeSink takes the event by value, so Append's copy never escapes when
// no sink is set.
func (j *Journal) writeSink(e Event) {
	j.sinkMu.Lock()
	defer j.sinkMu.Unlock()
	if j.sink == nil {
		return
	}
	b, err := json.Marshal(&e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	if _, err := j.sink.Write(b); err != nil && j.sinkErr == nil {
		j.sinkErr = err
	}
}

// AttachMetrics registers the journal's own series on the shared registry:
// events appended by kind and ring evictions, which the append path
// counts (its series are resolved here, once), and the live events and
// the SLO burn-rate gauges per sliding window, which are computed from
// the ring when read.
func (j *Journal) AttachMetrics(reg *obs.Registry) {
	j.mEvents = reg.CounterVec("fedwf_audit_events_total",
		"Events appended to the audit journal.", "kind")
	for i, k := range kinds {
		j.mKinds[i] = j.mEvents.With(string(k))
	}
	j.mDropped = reg.Counter("fedwf_audit_events_dropped_total",
		"Oldest events evicted from the audit-journal ring.")
	// Every assigned sequence number is live or dropped, so this is Len()
	// without visiting the shards.
	reg.Gauge("fedwf_audit_ring_live_total",
		"Live events in the audit-journal ring.").ReadFrom(func() float64 {
		return float64(j.Seq() - uint64(j.Dropped()))
	})
	avail := reg.GaugeVec("fedwf_slo_availability_burn_total",
		"Availability error-budget burn rate over a sliding virtual-time window.", "window")
	lat := reg.GaugeVec("fedwf_slo_latency_burn_total",
		"Latency-objective error-budget burn rate over a sliding virtual-time window.", "window")
	stmts := reg.GaugeVec("fedwf_slo_window_statements_total",
		"Statements inside a sliding virtual-time SLO window.", "window")
	for _, w := range Windows {
		label := windowLabel(w)
		avail.With(label).ReadFrom(func() float64 { return j.SLOBurn(w).AvailBurn })
		lat.With(label).ReadFrom(func() float64 { return j.SLOBurn(w).LatencyBurn })
		stmts.With(label).ReadFrom(func() float64 { return float64(j.SLOBurn(w).Statements) })
	}
}

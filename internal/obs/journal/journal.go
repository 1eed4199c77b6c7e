// Package journal is the federation's audit journal: a bounded,
// lock-sharded ring of wide events on the virtual clock. Every statement,
// federated call, retry/breaker/shed decision, workflow instance, and
// activity transition is one structured event, so the server can explain
// its own recent behavior — queryable through the fed_audit_* virtual
// tables, the /audit and /wf/instances JSON endpoints, and the SLO
// burn-rate monitor in slo.go.
//
// The journal keeps its own virtual clock: AppendStatement stamps each
// finished statement with the federation-wide instant and folds its
// simulated duration into it, Advance adds idle time, and every event
// records its absolute virtual start and duration on that clock. Ordering
// therefore never reads wall time (rule virtualclock), and a journal filled
// by a deterministic workload is itself deterministic.
package journal

import (
	"bufio"
	"encoding/json"
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
	// shard seq mod numShards, so each shard sees a strictly increasing
	// subsequence and the union of per-shard rings is always a contiguous
	// suffix of the sequence numbers.
	numShards = 8
)

type shard struct {
	mu  sync.Mutex
	buf []Event // ring of perShard slots
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

	// sloMu guards the SLO fold (slo.go): the objectives, the mark ring and
	// the per-window totals. Statement events are stored under it, so marks
	// are recorded in sequence order.
	sloMu sync.Mutex
	obj   Objectives
	marks markRing
	win   []windowFold
	// oldestMark is the sequence number of the oldest retained mark (0 when
	// none), so an append that evicts no statement skips sloMu.
	oldestMark atomic.Uint64

	// Optional registry series, resolved once by AttachMetrics.
	mEvents  *obs.CounterVec
	mKinds   [len(kinds)]*obs.Counter
	mDropped *obs.Counter
	mLive    *obs.Gauge
}

// New returns an empty journal.
func New(opt Options) *Journal {
	capacity := opt.Capacity
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	j := &Journal{perShard: per, win: make([]windowFold, len(Windows))}
	for i := range j.shards {
		j.shards[i].buf = make([]Event, per)
	}
	for k, w := range Windows {
		j.win[k] = windowFold{w: w, label: windowLabel(w)}
	}
	return j
}

// Capacity returns the effective ring bound.
func (j *Journal) Capacity() int { return j.perShard * numShards }

// Append assigns the event its sequence number, stores it (dropping the
// shard's oldest event when full), mirrors it to the JSONL sink, and
// returns the assigned sequence number. A statement event is taken as
// stamped by the caller; AppendStatement stamps it from the journal clock.
func (j *Journal) Append(e Event) uint64 {
	var seq uint64
	if e.Kind == KindStatement {
		j.sloMu.Lock()
		seq = j.storeStatementLocked(&e)
		j.refreshLocked()
		j.sloMu.Unlock()
	} else {
		seq = j.store(&e)
		if o := j.oldestMark.Load(); o != 0 && o+uint64(j.Capacity()) <= seq {
			// This append evicted a statement the windows still count.
			j.sloMu.Lock()
			j.refreshLocked()
			j.sloMu.Unlock()
		}
	}
	if j.sinkOn.Load() {
		j.writeSink(e)
	}
	return seq
}

// AppendStatement appends e as a statement event that starts at the
// journal's current instant, advances the clock by e.DurVT, and returns
// the start it stamped — the base on which the statement's call events
// lay out their own starts.
func (j *Journal) AppendStatement(e Event) (start time.Duration) {
	e.Kind = KindStatement
	j.sloMu.Lock()
	e.StartVT = j.Now()
	j.storeStatementLocked(&e)
	if e.DurVT > 0 {
		j.vclock.Add(int64(e.DurVT))
	}
	j.refreshLocked()
	j.sloMu.Unlock()
	if j.sinkOn.Load() {
		j.writeSink(e)
	}
	return e.StartVT
}

// store assigns e its sequence number and writes it into the ring.
func (j *Journal) store(e *Event) uint64 {
	seq := j.seq.Add(1)
	e.Seq = seq
	sh := &j.shards[seq%numShards]
	slot := int((seq-1)/numShards) % j.perShard
	sh.mu.Lock()
	if sh.n == j.perShard {
		j.dropped.Add(1)
		j.mDropped.Inc()
	} else {
		sh.n++
	}
	sh.buf[slot] = *e
	sh.mu.Unlock()

	if j.mEvents != nil {
		if i := e.Kind.index(); i >= 0 {
			j.mKinds[i].Inc()
		} else {
			j.mEvents.With(string(e.Kind)).Inc()
		}
	}
	// Every assigned sequence number is live or dropped, so this is Len()
	// without visiting the shards.
	j.mLive.Set(float64(j.Seq() - uint64(j.Dropped())))
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
		out = append(out, sh.buf[:sh.n]...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Tail returns the newest n events in ascending sequence order.
func (j *Journal) Tail(n int) []Event {
	all := j.Snapshot()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Now returns the federation-wide virtual instant: the accumulated
// simulated time of every statement and idle period folded in.
func (j *Journal) Now() time.Duration { return time.Duration(j.vclock.Load()) }

// Advance moves the federation-wide virtual clock forward by d — idle time
// between statements, which experiments use to spread a workload over
// virtual time — and refreshes the SLO gauges.
func (j *Journal) Advance(d time.Duration) {
	j.sloMu.Lock()
	if d > 0 {
		j.vclock.Add(int64(d))
	}
	j.refreshLocked()
	j.sloMu.Unlock()
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
// events appended by kind, ring evictions, live events, and the SLO
// burn-rate gauges per sliding window. Every series the append path sets
// is resolved here, once.
func (j *Journal) AttachMetrics(reg *obs.Registry) {
	j.mEvents = reg.CounterVec("fedwf_audit_events_total",
		"Events appended to the audit journal.", "kind")
	for i, k := range kinds {
		j.mKinds[i] = j.mEvents.With(string(k))
	}
	j.mDropped = reg.Counter("fedwf_audit_events_dropped_total",
		"Oldest events evicted from the audit-journal ring.")
	j.mLive = reg.Gauge("fedwf_audit_ring_live_total",
		"Live events in the audit-journal ring.")
	avail := reg.GaugeVec("fedwf_slo_availability_burn_total",
		"Availability error-budget burn rate over a sliding virtual-time window.", "window")
	lat := reg.GaugeVec("fedwf_slo_latency_burn_total",
		"Latency-objective error-budget burn rate over a sliding virtual-time window.", "window")
	stmts := reg.GaugeVec("fedwf_slo_window_statements_total",
		"Statements inside a sliding virtual-time SLO window.", "window")
	j.sloMu.Lock()
	for k := range j.win {
		w := &j.win[k]
		w.mAvail, w.mLat, w.mStmts = avail.With(w.label), lat.With(w.label), stmts.With(w.label)
	}
	j.refreshLocked()
	j.sloMu.Unlock()
}

// CallEvents derives one KindCall event per federated-function invocation
// from a statement's span tree: every span named "udtf.<something>"
// carrying an "fn" attribute is one invocation (the same convention the
// statistics warehouse uses). tmpl supplies the statement-scoped fields —
// trace ID, fingerprint, arch — and its StartVT is the statement's base on
// the journal clock, to which each span's relative start is added.
func CallEvents(root *obs.SpanData, tmpl Event) []Event {
	if root == nil {
		return nil
	}
	var out []Event
	var walk func(s *obs.SpanData)
	walk = func(s *obs.SpanData) {
		if len(s.Name) > 5 && s.Name[:5] == "udtf." {
			fn := ""
			for _, a := range s.Attrs {
				if a.Key == "fn" {
					fn = a.Value
					break
				}
			}
			if fn != "" {
				e := tmpl
				e.Kind = KindCall
				e.Func = fn
				e.Row = -1
				e.Rows = 0
				e.RPCs, e.Instances = 0, 0
				e.StartVT = tmpl.StartVT + time.Duration(s.StartNS)
				e.DurVT = time.Duration(s.ElapsedNS)
				out = append(out, e)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

package journal

import (
	"sort"
	"strconv"
	"time"

	"fedwf/internal/obs"
)

// Objectives are the federation's service-level objectives. Availability
// is the target fraction of statements that must succeed; Latency is the
// per-statement simulated-duration objective. Zero values disable the
// corresponding burn rate (it reads as 0).
type Objectives struct {
	Availability float64       `json:"availability"`
	Latency      time.Duration `json:"latency_ns"`
}

// DefaultObjectives are the out-of-the-box SLOs: 99.5% availability and a
// 250 paper-ms latency objective — loose enough that a healthy federation
// burns well under budget, tight enough that an E12-style fault burst
// shows up immediately in the short windows.
func DefaultObjectives() Objectives {
	return Objectives{Availability: 0.995, Latency: 250 * time.Millisecond}
}

// Windows are the sliding virtual-time windows the monitor evaluates, in
// the multi-window burn-rate style: a short window that reacts fast and a
// long window that filters noise. A journal folds the windows listed here
// when it is built (New).
var Windows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// WindowBurn is the burn-rate evaluation of one sliding window.
type WindowBurn struct {
	Window       string  `json:"window"` // "1m", "5m", "1h"
	Statements   int     `json:"statements"`
	Errors       int     `json:"errors"`
	Slow         int     `json:"slow"` // statements over the latency objective
	AvailBurn    float64 `json:"availability_burn"`
	LatencyBurn  float64 `json:"latency_burn"`
	ErrFraction  float64 `json:"error_fraction"`
	SlowFraction float64 `json:"slow_fraction"`
}

// SLOReport is the full monitor output: the configured objectives, the
// current virtual instant, and one WindowBurn per window.
type SLOReport struct {
	Objectives Objectives    `json:"objectives"`
	NowVT      time.Duration `json:"now_vt_ns"`
	Windows    []WindowBurn  `json:"windows"`
}

// The SLO fold. Every statement event leaves a mark — its sequence number
// with error and slow flags, and its virtual start — in a ring beside the
// journal, and every window keeps running totals over a cursor into that
// ring. A mark leaves window w once its start is at or before now - w or
// its event has been evicted (seq + Capacity() <= Seq()): the marks from
// the cursor on are exactly the statements a scan of the live events for
// StartVT > now - w would count. AppendStatement stamps
// starts from the journal clock under sloMu, so marks are sorted by
// sequence and by start, each cursor only moves forward, and a statement
// costs O(1) amortized however full the ring is. A mark is kept while its
// event is live, so SLOBurn can still answer a window that is not folded.
//
// A statement event stored through Append keeps the start its caller
// stamped. Marks are folded in append order, so a hand-stamped start that
// runs behind an earlier one stays counted until the cursor reaches it.

// mark is one statement event as the windows see it.
type mark struct {
	seq   uint64        // sequence number; markErr and markSlow in the top bits
	start time.Duration // the event's StartVT
}

const (
	markErr  uint64 = 1 << 63 // the statement failed
	markSlow uint64 = 1 << 62 // its DurVT is over the latency objective
	markSeq         = markSlow - 1
)

// markRing is a ring of marks in append order that doubles when full. It
// holds one mark per live statement event, so never more than Capacity().
type markRing struct {
	buf        []mark // length zero or a power of two
	head, tail uint64 // absolute positions; [head, tail) are retained
}

func (r *markRing) at(i uint64) *mark { return &r.buf[i&uint64(len(r.buf)-1)] }

func (r *markRing) push(m mark) {
	if r.tail-r.head == uint64(len(r.buf)) {
		buf := make([]mark, max(16, 2*len(r.buf)))
		for i := r.head; i < r.tail; i++ {
			buf[i&uint64(len(buf)-1)] = *r.at(i)
		}
		r.buf = buf
	}
	*r.at(r.tail) = m
	r.tail++
}

// tally counts the statements, errors and slow statements of a window.
type tally struct{ stmts, errs, slow int }

func (t *tally) add(m *mark, n int) {
	t.stmts += n
	if m.seq&markErr != 0 {
		t.errs += n
	}
	if m.seq&markSlow != 0 {
		t.slow += n
	}
}

// burn turns the counts into the window's burn rates. The burn rate is the
// fraction of the error budget the window consumed, normalized so 1.0
// means "burning exactly at the rate that exhausts the budget":
// errFraction / (1 - availabilityObjective) for availability, slowFraction
// over the same budget for latency. A window with no statements burns
// nothing.
func (t tally) burn(label string, obj Objectives) WindowBurn {
	b := WindowBurn{Window: label, Statements: t.stmts, Errors: t.errs, Slow: t.slow}
	if b.Statements == 0 {
		return b
	}
	b.ErrFraction = float64(b.Errors) / float64(b.Statements)
	b.SlowFraction = float64(b.Slow) / float64(b.Statements)
	budget := 1 - obj.Availability
	if budget > 0 {
		b.AvailBurn = b.ErrFraction / budget
		b.LatencyBurn = b.SlowFraction / budget
	}
	return b
}

// windowFold is one folded sliding window and its gauges.
type windowFold struct {
	w     time.Duration
	label string
	cur   uint64 // first mark still inside the window
	tally

	mAvail, mLat, mStmts *obs.Gauge
}

// SetObjectives replaces the monitor's objectives, reclassifies the live
// statements against the new latency objective, and refreshes the gauges.
func (j *Journal) SetObjectives(o Objectives) {
	j.sloMu.Lock()
	defer j.sloMu.Unlock()
	j.obj = o
	j.foldLocked()
	lat := j.objectivesLocked().Latency
	r := &j.marks
	n := int(r.tail - r.head)
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.Lock()
		for k := 0; k < sh.n; k++ {
			e := &sh.buf[k]
			if e.Kind != KindStatement {
				continue
			}
			p := sort.Search(n, func(x int) bool { return r.at(r.head+uint64(x)).seq&markSeq >= e.Seq })
			if p == n || r.at(r.head+uint64(p)).seq&markSeq != e.Seq {
				continue
			}
			m := r.at(r.head + uint64(p))
			m.seq &^= markSlow
			if lat > 0 && e.DurVT > lat {
				m.seq |= markSlow
			}
		}
		sh.mu.Unlock()
	}
	for k := range j.win {
		w := &j.win[k]
		w.tally = tally{}
		for i := w.cur; i < r.tail; i++ {
			w.add(r.at(i), 1)
		}
	}
	j.publishLocked()
}

// Objectives returns the configured objectives (DefaultObjectives if
// never set).
func (j *Journal) Objectives() Objectives {
	j.sloMu.Lock()
	defer j.sloMu.Unlock()
	return j.objectivesLocked()
}

func (j *Journal) objectivesLocked() Objectives {
	if j.obj == (Objectives{}) {
		return DefaultObjectives()
	}
	return j.obj
}

// windowLabel renders a window duration the way dashboards expect.
func windowLabel(w time.Duration) string {
	switch {
	case w >= time.Hour && w%time.Hour == 0:
		return strconv.Itoa(int(w/time.Hour)) + "h"
	case w >= time.Minute && w%time.Minute == 0:
		return strconv.Itoa(int(w/time.Minute)) + "m"
	default:
		return strconv.Itoa(int(w/time.Second)) + "s"
	}
}

// SLOBurn evaluates one sliding window ending at the journal's current
// virtual instant: the statement events still in the ring that started
// after now - w. A window of Windows reads its running totals; any other
// counts the retained marks.
func (j *Journal) SLOBurn(w time.Duration) WindowBurn {
	j.sloMu.Lock()
	defer j.sloMu.Unlock()
	j.foldLocked()
	obj := j.objectivesLocked()
	for k := range j.win {
		if f := &j.win[k]; f.w == w {
			return f.burn(f.label, obj)
		}
	}
	var t tally
	cutoff := j.Now() - w
	for i := j.marks.head; i < j.marks.tail; i++ {
		if m := j.marks.at(i); m.start > cutoff {
			t.add(m, 1)
		}
	}
	return t.burn(windowLabel(w), obj)
}

// SLOReport evaluates every window.
func (j *Journal) SLOReport() SLOReport {
	rep := SLOReport{Objectives: j.Objectives(), NowVT: j.Now()}
	for _, w := range Windows {
		rep.Windows = append(rep.Windows, j.SLOBurn(w))
	}
	return rep
}

// storeStatementLocked stores a statement event and records its mark. The
// caller refreshes afterwards.
func (j *Journal) storeStatementLocked(e *Event) uint64 {
	seq := j.store(e)
	// Drop the mark this append evicted first, so the ring never has to
	// grow past Capacity().
	j.foldLocked()
	m := mark{seq: seq, start: e.StartVT}
	if e.Err != "" {
		m.seq |= markErr
	}
	if lat := j.objectivesLocked().Latency; lat > 0 && e.DurVT > lat {
		m.seq |= markSlow
	}
	j.marks.push(m)
	if j.marks.tail-j.marks.head == 1 {
		// Published before the caller's fold reads Seq(), so an append that
		// read "no marks" has its sequence number seen by that fold.
		j.oldestMark.Store(seq)
	}
	for k := range j.win {
		j.win[k].add(&m, 1)
	}
	return seq
}

// foldLocked moves every window's cursor past the marks that have left it
// and drops the marks whose events the ring has evicted.
func (j *Journal) foldLocked() {
	now, last, capacity := j.Now(), j.Seq(), uint64(j.Capacity())
	r := &j.marks
	for k := range j.win {
		w := &j.win[k]
		cutoff := now - w.w
		for ; w.cur < r.tail; w.cur++ {
			m := r.at(w.cur)
			if m.start > cutoff && m.seq&markSeq+capacity > last {
				break
			}
			w.add(m, -1)
		}
	}
	// Eviction is oldest-first, so the evicted marks are a prefix, and
	// every cursor has passed them.
	for r.head < r.tail && r.at(r.head).seq&markSeq+capacity <= last {
		r.head++
	}
	var oldest uint64
	if r.head < r.tail {
		oldest = r.at(r.head).seq & markSeq
	}
	j.oldestMark.Store(oldest)
}

// refreshLocked folds the windows up to the current instant and sequence
// number and publishes them.
func (j *Journal) refreshLocked() {
	j.foldLocked()
	j.publishLocked()
}

// publishLocked sets the fedwf_slo_* gauges from the folded windows. No-op
// until AttachMetrics has run.
func (j *Journal) publishLocked() {
	if len(j.win) == 0 || j.win[0].mAvail == nil {
		return
	}
	obj := j.objectivesLocked()
	for k := range j.win {
		w := &j.win[k]
		b := w.burn(w.label, obj)
		w.mAvail.Set(b.AvailBurn)
		w.mLat.Set(b.LatencyBurn)
		w.mStmts.Set(float64(b.Statements))
	}
}

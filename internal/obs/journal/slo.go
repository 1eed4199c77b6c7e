package journal

import (
	"strconv"
	"time"
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
// long window that filters noise. AttachMetrics publishes a gauge set per
// window listed here.
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

// burn turns a window's counts into its burn rates. The burn rate is the
// fraction of the error budget the window consumed, normalized so 1.0
// means "burning exactly at the rate that exhausts the budget":
// errFraction / (1 - availabilityObjective) for availability, slowFraction
// over the same budget for latency. A window with no statements burns
// nothing.
func (b *WindowBurn) burn(obj Objectives) {
	if b.Statements == 0 {
		return
	}
	b.ErrFraction = float64(b.Errors) / float64(b.Statements)
	b.SlowFraction = float64(b.Slow) / float64(b.Statements)
	budget := 1 - obj.Availability
	if budget > 0 {
		b.AvailBurn = b.ErrFraction / budget
		b.LatencyBurn = b.SlowFraction / budget
	}
}

// SetObjectives replaces the monitor's objectives. The burn rates read
// them the next time they are asked for.
func (j *Journal) SetObjectives(o Objectives) { j.obj.Store(&o) }

// Objectives returns the configured objectives (DefaultObjectives if
// never set, or set to the zero value).
func (j *Journal) Objectives() Objectives {
	if o := j.obj.Load(); o != nil && *o != (Objectives{}) {
		return *o
	}
	return DefaultObjectives()
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
// after now - w.
func (j *Journal) SLOBurn(w time.Duration) WindowBurn {
	var b [1]WindowBurn
	j.burns([]time.Duration{w}, b[:])
	return b[0]
}

// SLOReport evaluates every window of Windows at one instant, in one scan
// of the ring.
func (j *Journal) SLOReport() SLOReport {
	rep := SLOReport{Objectives: j.Objectives(), NowVT: j.Now(), Windows: make([]WindowBurn, len(Windows))}
	j.burns(Windows, rep.Windows)
	return rep
}

// burns fills out[k] with the evaluation of window ws[k]: it scans the
// live statement events once, one shard at a time under its lock, and
// counts each into every window it started inside. The cost is one pass
// over the ring per call, paid by the reader; appends compute nothing.
func (j *Journal) burns(ws []time.Duration, out []WindowBurn) {
	obj, now := j.Objectives(), j.Now()
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.Lock()
		for x := range sh.buf {
			e := &sh.buf[x]
			// An empty slot has Seq 0 and no kind.
			if e.Kind != KindStatement {
				continue
			}
			slow := obj.Latency > 0 && e.DurVT > obj.Latency
			for k, w := range ws {
				if e.StartVT <= now-w {
					continue
				}
				out[k].Statements++
				if e.Err != "" {
					out[k].Errors++
				}
				if slow {
					out[k].Slow++
				}
			}
		}
		sh.mu.Unlock()
	}
	for k, w := range ws {
		out[k].Window = windowLabel(w)
		out[k].burn(obj)
	}
}

package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"fedwf/internal/simlat"
)

// newHexID returns n (at most 16) random bytes as lowercase hex. Both
// buffers live on the stack, so the string is the one allocation.
func newHexID(n int) string {
	var raw [16]byte
	var text [32]byte
	if _, err := rand.Read(raw[:n]); err != nil {
		// crypto/rand failing is unrecoverable; fall back to a fixed
		// marker rather than panicking inside instrumentation.
		return strings.Repeat("0", 2*n)
	}
	hex.Encode(text[:], raw[:n])
	return string(text[:2*n])
}

// NewTraceID mints a 16-byte trace identifier (W3C traceparent sized).
func NewTraceID() string { return newHexID(16) }

// TraceContext is the W3C-traceparent-style context propagated with every
// RPC: which trace the call belongs to, which span is the remote parent,
// and whether the callee should record at all. The zero value means
// "untraced", which is exactly what an old client's request decodes to.
type TraceContext struct {
	TraceID string
	SpanID  string
	Sampled bool
}

// ContextFrom captures the task's current span as an outgoing trace
// context. It returns the zero (untraced) context when no tracer is
// attached.
func ContextFrom(task *simlat.Task) TraceContext {
	sp := CurrentSpan(task)
	if sp == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: sp.TraceID(), SpanID: sp.ID(), Sampled: true}
}

// Response-metadata keys reserved for the tracing machinery. A fragment
// rides the existing meta channel as an EncodeTrace byte string (the frame
// codec writes meta values as length-prefixed raw bytes), so no new wire
// types are needed and old peers simply ignore the keys.
const (
	// MetaTraceFragment carries the served span tree back to the caller,
	// which knows the trace it sent and the span it sent it from.
	MetaTraceFragment = "trace.fragment"
	// MetaTraceID reports the trace ID assigned to a traced statement.
	MetaTraceID = "trace_id"
)

// MaxInlineFragmentBytes caps the encoded size of a fragment shipped inline
// in response metadata; a larger tree is pruned level by level until it
// fits.
const MaxInlineFragmentBytes = 256 << 10

// StepData is the serializable form of one step attribution.
type StepData struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// SpanData is the decoded form of a span tree, and its JSON tags are the
// form paperbench -trace-out writes. It deliberately carries no span or
// trace IDs: identity is a transport concern, and keeping IDs out makes
// virtual-clock trees byte-identical across runs (-trace-out diffs rely on
// that).
type SpanData struct {
	Name      string      `json:"name"`
	StartNS   int64       `json:"start_ns"`
	ElapsedNS int64       `json:"elapsed_ns"`
	Attrs     []Attr      `json:"attrs,omitempty"`
	Steps     []StepData  `json:"steps,omitempty"`
	Children  []*SpanData `json:"children,omitempty"`
}

// SnapshotSpan copies a (finished) span tree into its serializable form.
func SnapshotSpan(s *Span) *SpanData {
	if s == nil {
		return nil
	}
	d := &SpanData{
		Name:      s.Name(),
		StartNS:   int64(s.Start()),
		ElapsedNS: int64(s.Elapsed()),
		Attrs:     s.Attrs(),
	}
	for _, st := range s.Steps() {
		d.Steps = append(d.Steps, StepData{Name: st.Name, NS: int64(st.Total)})
	}
	for _, c := range s.Children() {
		d.Children = append(d.Children, SnapshotSpan(c))
	}
	return d
}

// SpanFromData rebuilds a live span tree from its serializable form,
// shifting every start instant by shift so a remote tree (whose clock
// began at zero) lines up under the local span it is grafted onto. A nil
// child — a hand-built tree may hold one — is not a span and is dropped,
// so no live tree ever holds a nil child.
func SpanFromData(d *SpanData, shift time.Duration) *Span {
	if d == nil {
		return nil
	}
	sp := newSpan(d.Name, nil, time.Duration(d.StartNS)+shift)
	sp.attrs = append(sp.attrs, d.Attrs...)
	sp.ended = true
	sp.end = sp.start + time.Duration(d.ElapsedNS)
	for _, st := range d.Steps {
		sp.steps = append(sp.steps, StepTotal{Name: st.Name, Total: time.Duration(st.NS)})
	}
	for _, c := range d.Children {
		if c != nil {
			sp.children = append(sp.children, SpanFromData(c, shift))
		}
	}
	return sp
}

// SpanCount returns the number of spans in the tree.
func (d *SpanData) SpanCount() int {
	if d == nil {
		return 0
	}
	n := 1
	for _, c := range d.Children {
		n += c.SpanCount()
	}
	return n
}

// RenderData renders a SpanData tree in the same indented format Render
// uses for live spans, so a client's trace rendering matches what EXPLAIN
// ANALYZE and the slow-query log show.
func RenderData(d *SpanData) string {
	var b strings.Builder
	var walk func(d *SpanData, depth int)
	walk = func(d *SpanData, depth int) {
		if d == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s start=%s elapsed=%s", d.Name, fmtMS(time.Duration(d.StartNS)), fmtMS(time.Duration(d.ElapsedNS)))
		for _, a := range d.Attrs {
			b.WriteString(" " + a.String())
		}
		if len(d.Steps) > 0 {
			b.WriteString(" steps=[" + FormatSteps(d.Steps) + "]")
		}
		b.WriteByte('\n')
		for _, c := range d.Children {
			walk(c, depth+1)
		}
	}
	walk(d, 0)
	return b.String()
}

// FormatSteps renders a span's step attribution as "label:ms; …" in paper
// milliseconds, the form RenderData prints inside steps=[…].
func FormatSteps(steps []StepData) string {
	parts := make([]string, len(steps))
	for i, st := range steps {
		parts[i] = st.Name + ":" + fmtMS(time.Duration(st.NS))
	}
	return strings.Join(parts, "; ")
}

// waterfallWidth is the bar width of the waterfall rendering.
const waterfallWidth = 40

// Waterfall renders the tree as a plain-text waterfall: one line per span
// with a bar showing where in the root's elapsed window the span ran.
// Grafted remote spans appear inline, so a daemon-mode trace reads as one
// cross-process timeline.
func Waterfall(d *SpanData) string {
	if d == nil {
		return ""
	}
	total := d.ElapsedNS
	if total <= 0 {
		total = 1
	}
	rootStart := d.StartNS
	var b strings.Builder
	fmt.Fprintf(&b, "waterfall total=%s\n", fmtMS(time.Duration(d.ElapsedNS)))
	var walk func(d *SpanData, depth int)
	walk = func(d *SpanData, depth int) {
		if d == nil {
			return
		}
		from := int(float64(d.StartNS-rootStart) / float64(total) * waterfallWidth)
		width := int(float64(d.ElapsedNS) / float64(total) * waterfallWidth)
		if width < 1 {
			width = 1
		}
		if from < 0 {
			from = 0
		}
		if from > waterfallWidth-1 {
			from = waterfallWidth - 1
		}
		if from+width > waterfallWidth {
			width = waterfallWidth - from
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("#", width)
		bar += strings.Repeat(" ", waterfallWidth-len(bar))
		fmt.Fprintf(&b, "[%s] %s%s %s+%s", bar, strings.Repeat("  ", depth), d.Name,
			fmtMS(time.Duration(d.StartNS)), fmtMS(time.Duration(d.ElapsedNS)))
		for _, a := range d.Attrs {
			if a.Key == "error" || a.Key == "pruned" {
				fmt.Fprintf(&b, " %s", a.String())
			}
		}
		b.WriteByte('\n')
		for _, c := range d.Children {
			walk(c, depth+1)
		}
	}
	walk(d, 0)
	return b.String()
}

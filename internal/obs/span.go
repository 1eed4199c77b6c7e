// Package obs is the repo's dependency-free observability layer: span
// tracing, a metrics registry with Prometheus text exposition, and a
// structured slow-query log.
//
// Spans read time from simlat.Task's virtual clock, so a trace is in paper
// time and fully deterministic — the same query yields byte-identical span
// trees on every machine; a real serving duration rides as a wall_ms
// attribute read from a simlat.Stopwatch. Every layer of
// both integration architectures opens a span at its boundary (engine
// statement, executor operator, UDTF, controller, WfMS process/activity,
// application-system RPC), and each labelled simlat charge is attributed
// to the span active on that branch. Summing the step attributions over a
// span tree therefore reproduces the simlat.Recorder Fig. 6 breakdown
// exactly.
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"fedwf/internal/simlat"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String renders an Attr for the tree output.
func (a Attr) String() string { return a.Key + "=" + a.Value }

// StepTotal is the time attributed to one simlat step label within a span
// (or, aggregated, within a whole tree).
type StepTotal struct {
	Name  string
	Total time.Duration
}

// Span is one timed segment of a request. Spans form a tree; children may
// be appended concurrently by forked simlat branches. All methods are safe
// on a nil span, so instrumentation sites cost almost nothing when tracing
// is off.
type Span struct {
	name   string
	parent *Span

	mu       sync.Mutex
	id       string // wire identity, assigned lazily by ID()
	traceID  string // set on roots only; children resolve through the parent chain
	attrs    []Attr
	start    time.Duration
	end      time.Duration
	ended    bool
	steps    []StepTotal // one per label, in first-seen order
	children []*Span

	// Inline backing for attrs, steps and children. Most spans carry one
	// or two attributes, at most one step label and at most one child, so
	// opening, annotating, charging and closing one costs the Span itself
	// and nothing more; a larger span spills to the heap on append. The
	// capacities keep a Span inside the 256-byte size class.
	attrBuf  [2]Attr
	stepBuf  [1]StepTotal
	childBuf [1]*Span
}

// newSpan builds a started span.
func newSpan(name string, parent *Span, start time.Duration) *Span {
	s := &Span{name: name, parent: parent, start: start}
	s.attrs = s.attrBuf[:0]
	s.steps = s.stepBuf[:0]
	s.children = s.childBuf[:0]
	return s
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's wire identity, assigning one on first use. Only
// spans that cross a process boundary ever need one, so in-process traces
// stay entirely deterministic.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id == "" {
		s.id = newHexID(8)
	}
	return s.id
}

// root walks to the top of the tree. Parent pointers are immutable after
// creation, so the walk needs no locks.
func (s *Span) root() *Span {
	for s.parent != nil {
		s = s.parent
	}
	return s
}

// TraceID returns the trace this span belongs to, assigning a fresh ID on
// the root when none was adopted from a remote caller.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traceID == "" {
		r.traceID = newHexID(16)
	}
	return r.traceID
}

// SetTraceID adopts an externally assigned trace ID (e.g. the one carried
// in an incoming RPC's trace context) on the span's root.
func (s *Span) SetTraceID(id string) {
	if s == nil || id == "" {
		return
	}
	r := s.root()
	r.mu.Lock()
	r.traceID = id
	r.mu.Unlock()
}

// Graft attaches an already-completed span tree — typically reconstructed
// from a remote fragment — as a child of parent, so cross-process hops
// appear inline in the caller's waterfall. A TCP callee charges its own
// clock, so the grafted tree may outlast the span it hangs under: Graft
// raises the ends of parent and every ancestor to cover it, and End never
// moves an end back, so every span stays inside its parent.
func Graft(parent, child *Span) {
	if parent == nil || child == nil {
		return
	}
	parent.addChild(child)
	end := child.start + child.Elapsed()
	for p := parent; p != nil; p = p.parent {
		p.mu.Lock()
		p.end = max(p.end, end) // on an open span: the floor End closes it at
		p.mu.Unlock()
	}
}

// Start returns the span's start instant on its branch clock.
func (s *Span) Start() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

// Elapsed returns end - start, or 0 while the span is still open.
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsedLocked()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// AddStep implements simlat.SpanSink: it attributes d of charged work to
// the named step within this span.
func (s *Span) AddStep(label string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.steps {
		if s.steps[i].Name == label {
			s.steps[i].Total += d
			return
		}
	}
	s.steps = append(s.steps, StepTotal{Name: label, Total: d})
}

// Steps returns this span's own step attributions (children excluded) in
// first-seen order.
func (s *Span) Steps() []StepTotal {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StepTotal, len(s.steps))
	copy(out, s.steps)
	return out
}

// Children returns the child spans ordered by (start, name, attributes),
// which makes traversal deterministic even when parallel branches appended
// them in racing order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.sortChildrenLocked()
	out := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	return out
}

// sortChildrenLocked puts s's children in their deterministic order, in
// place. Start and name alone do not settle it: the exec.worker spans of one
// ParallelApply open at the same instant under the same name and differ only
// in their worker attribute, so ties break on the attribute list. The caller
// holds s.mu.
func (s *Span) sortChildrenLocked() {
	if !slices.IsSortedFunc(s.children, compareSpans) {
		slices.SortStableFunc(s.children, compareSpans)
	}
}

// compareSpans orders siblings by start, then name, then attribute list. A
// span's start and name are fixed when it is created, so only its
// attributes need its lock.
func compareSpans(a, b *Span) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	return slices.CompareFunc(a.attrList(), b.attrList(), func(x, y Attr) int {
		if c := strings.Compare(x.Key, y.Key); c != 0 {
			return c
		}
		return strings.Compare(x.Value, y.Value)
	})
}

// attrList returns the span's attribute slice without copying it. SetAttr
// only appends, so the elements below the returned length never change.
func (s *Span) attrList() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs
}

// elapsedLocked is Elapsed for a caller holding s.mu.
func (s *Span) elapsedLocked() time.Duration {
	if !s.ended {
		return 0
	}
	return s.end - s.start
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span at the task's current branch time (or a later end a
// graft raised it to) and restores the span's parent as the task's current
// sink (when this span still is).
func (s *Span) End(task *simlat.Task) {
	if s == nil {
		return
	}
	now := task.Elapsed()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = max(s.end, now)
	}
	s.mu.Unlock()
	if task.SpanSink() == simlat.SpanSink(s) {
		task.SetSpanSink(spanOrNil(s.parent))
	}
}

// spanOrNil converts a possibly-nil *Span into a clean nil interface.
func spanOrNil(s *Span) simlat.SpanSink {
	if s == nil {
		return nil
	}
	return s
}

// StepTotals aggregates the step attributions over the whole subtree in
// deterministic first-seen (DFS) order. In virtual mode, with a Recorder
// attached to the same task, the totals equal the Recorder's exactly.
func (s *Span) StepTotals() []StepTotal {
	totals := make(map[string]time.Duration)
	var order []string
	var walk func(sp *Span)
	walk = func(sp *Span) {
		if sp == nil {
			return
		}
		for _, st := range sp.Steps() {
			if _, ok := totals[st.Name]; !ok {
				order = append(order, st.Name)
			}
			totals[st.Name] += st.Total
		}
		for _, c := range sp.Children() {
			walk(c)
		}
	}
	walk(s)
	out := make([]StepTotal, 0, len(order))
	for _, n := range order {
		out = append(out, StepTotal{Name: n, Total: totals[n]})
	}
	return out
}

// FedCall is one federated-function invocation of a finished statement: a
// span named udtf.* that carries an fn attribute.
type FedCall struct {
	Fn      string
	Start   time.Duration // the span's start on the statement's clock
	Elapsed time.Duration
}

// FedCalls appends the federated calls of the finished tree under s to dst,
// in depth-first Children order, and returns the extended slice. It reads
// every span in place under its lock and copies nothing but the calls, so
// the journal, the warehouse and the trace collector share one walk.
func FedCalls(s *Span, dst []FedCall) []FedCall {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if strings.HasPrefix(s.name, "udtf.") {
		for _, a := range s.attrs {
			if a.Key == "fn" {
				if a.Value != "" {
					dst = append(dst, FedCall{Fn: a.Value, Start: s.start, Elapsed: s.elapsedLocked()})
				}
				break
			}
		}
	}
	s.sortChildrenLocked()
	for _, c := range s.children {
		dst = FedCalls(c, dst)
	}
	return dst
}

// StartSpan opens a child of the task's current span, makes it the task's
// current sink, and returns it. It returns nil — and every later method on
// the result is a no-op — when no tracer is attached to the task.
func StartSpan(task *simlat.Task, name string, attrs ...Attr) *Span {
	cur := task.SpanSink()
	if cur == nil {
		return nil
	}
	parent, ok := cur.(*Span)
	if !ok {
		return nil
	}
	child := newSpan(name, parent, task.Elapsed())
	child.attrs = append(child.attrs, attrs...)
	parent.addChild(child)
	task.SetSpanSink(child)
	return child
}

// CurrentSpan returns the task's current span, or nil.
func CurrentSpan(task *simlat.Task) *Span {
	if sp, ok := task.SpanSink().(*Span); ok {
		return sp
	}
	return nil
}

// Tracer owns the root span of one traced request.
type Tracer struct {
	task *simlat.Task
	root *Span
	prev simlat.SpanSink
}

// Trace starts tracing the task: a root span named name opens at the
// task's current branch time and becomes the current sink (forks inherit
// it). Call Finish to close the root and detach.
func Trace(task *simlat.Task, name string, attrs ...Attr) *Tracer {
	root := newSpan(name, nil, task.Elapsed())
	root.attrs = append(root.attrs, attrs...)
	prev := task.SetSpanSink(root)
	return &Tracer{task: task, root: root, prev: prev}
}

// Root returns the root span.
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span, restores the task's previous sink, and
// returns the completed tree.
func (t *Tracer) Finish() *Span {
	if t == nil {
		return nil
	}
	t.root.End(t.task)
	t.task.SetSpanSink(t.prev)
	return t.root
}

// Render returns the span tree as an indented, deterministic listing:
// one line per span with start/elapsed in paper milliseconds, attributes,
// and the span's own step attributions.
func Render(root *Span) string {
	var b strings.Builder
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		if sp == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s start=%s elapsed=%s", sp.Name(), fmtMS(sp.Start()), fmtMS(sp.Elapsed()))
		for _, a := range sp.Attrs() {
			b.WriteString(" " + a.String())
		}
		if steps := sp.Steps(); len(steps) > 0 {
			parts := make([]string, len(steps))
			for i, st := range steps {
				parts[i] = fmt.Sprintf("%s:%s", st.Name, fmtMS(st.Total))
			}
			b.WriteString(" steps=[" + strings.Join(parts, "; ") + "]")
		}
		b.WriteByte('\n')
		for _, c := range sp.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// Summary flattens the first two levels of a span tree into one line, for
// the slow-query log.
func Summary(root *Span) string {
	if root == nil {
		return ""
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("%s=%s", root.Name(), fmtMS(root.Elapsed())))
	for _, c := range root.Children() {
		parts = append(parts, fmt.Sprintf("%s=%s", c.Name(), fmtMS(c.Elapsed())))
	}
	return strings.Join(parts, ">")
}

// WallMS renders a wall-clock duration in milliseconds to the microsecond:
// the form of every wall_ms span attribute and metadata value.
func WallMS(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
}

// fmtMS renders a duration in paper milliseconds with one decimal.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(simlat.PaperMS))
}

// Package simlat simulates the execution-time behaviour of the paper's
// 2002 testbed (DB2 UDB v7.1 + MQ Series Workflow v3.2.2 + Java RMI).
//
// The paper's performance claims are about ratios and orderings, not
// absolute numbers: the WfMS architecture is about 3x slower than the
// enhanced SQL UDTF architecture, parallel activities pay off only under
// the WfMS, removing the controller shrinks UDTF time by 25% but WfMS time
// by only 8%, and per-step time portions follow Fig. 6. simlat provides
//
//   - Task: the cost model threaded through both integration stacks: a
//     deterministic virtual clock supporting fork/join so parallel
//     workflow branches overlap (elapsed = max of branches). A Task never
//     reads or waits on the wall clock.
//   - Stopwatch: the one wall-clock reader, for the serving durations
//     (statement wall time, admission queue waits) that are real time
//     rather than paper time.
//   - Recorder: attributes spent time to named steps, regenerating the
//     Fig. 6 breakdown tables.
//   - Profile: the calibrated step costs, expressed in "paper
//     milliseconds" (PaperMS).
package simlat

import (
	"sort"
	"sync"
	"time"
)

// PaperMS is one millisecond of 2002-testbed time. All Profile constants
// are multiples of it.
const PaperMS = time.Millisecond

// Mode selects how a Task consumes simulated work.
type Mode int

// Task modes.
const (
	// ModeVirtual accounts time on a deterministic virtual clock and
	// never sleeps. Fork/Join implement parallel-branch semantics.
	ModeVirtual Mode = iota
	// ModeFree ignores all Spend calls; used when the SQL engine is
	// exercised outside a measured experiment.
	ModeFree
)

// SpanSink observes the work charged to a task. The obs package's spans
// implement it: the task carries the current span, forks inherit it, and
// every labelled Spend is attributed to it — so a span tree accounts for
// exactly the same charges as an attached Recorder.
type SpanSink interface {
	AddStep(label string, d time.Duration)
}

// Task is the cost meter for one in-flight request (one federated function
// call, one query). It is safe for concurrent use by forked branches.
type Task struct {
	mode Mode

	mu    sync.Mutex
	now   time.Duration // virtual elapsed on this branch
	spent time.Duration // total work charged to this branch
	label string        // current step label; Spend attributes to it

	rec  *Recorder // optional shared step recorder
	sink SpanSink  // optional current span (per branch, inherited by forks)
}

// NewVirtualTask returns a task on a fresh virtual clock.
func NewVirtualTask() *Task { return &Task{mode: ModeVirtual} }

// Free returns a task that ignores all accounting.
func Free() *Task { return &Task{mode: ModeFree} }

// Mode returns the task's accounting mode.
func (t *Task) Mode() Mode {
	if t == nil {
		return ModeFree
	}
	return t.mode
}

// SetRecorder attaches a step recorder shared by this task and all later
// forks of it.
func (t *Task) SetRecorder(r *Recorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec = r
	t.mu.Unlock()
}

// Recorder returns the attached recorder, or nil.
func (t *Task) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec
}

// SetSpanSink installs the branch's current span sink and returns the
// previous one so callers can restore it when a span ends. Unlike the
// recorder, the sink is branch-local: a fork starts with the sink current
// at fork time, and replacing it later on the branch does not affect the
// parent.
func (t *Task) SetSpanSink(s SpanSink) (prev SpanSink) {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	prev = t.sink
	t.sink = s
	t.mu.Unlock()
	return prev
}

// SpanSink returns the branch's current span sink, or nil.
func (t *Task) SpanSink() SpanSink {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sink
}

// SetLabel sets the current step label: subsequent Spend calls — including
// those made by callees further down the stack — are attributed to it in
// the recorder. It returns the previous label so callers can restore it.
func (t *Task) SetLabel(name string) (prev string) {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	prev = t.label
	t.label = name
	t.mu.Unlock()
	return prev
}

// Spend charges d of simulated work to the task, attributing it to the
// current step label when one is set.
func (t *Task) Spend(d time.Duration) {
	if t == nil || d <= 0 || t.mode == ModeFree {
		return
	}
	t.mu.Lock()
	t.now += d
	t.spent += d
	rec, sink, label := t.rec, t.sink, t.label
	t.mu.Unlock()
	if label != "" {
		if rec != nil {
			rec.Add(label, d)
		}
		if sink != nil {
			sink.AddStep(label, d)
		}
	}
}

// Step charges d of simulated work and attributes it to the named step,
// overriding the current label for this one charge.
func (t *Task) Step(name string, d time.Duration) {
	if t == nil || t.mode == ModeFree {
		return
	}
	prev := t.SetLabel(name)
	t.Spend(d)
	t.SetLabel(prev)
}

// Elapsed returns the branch-local virtual clock reading (always 0 on a
// free task, which charges nothing).
func (t *Task) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now
}

// Spent returns the total simulated work charged to this branch.
func (t *Task) Spent() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spent
}

// Fork starts a parallel branch whose virtual clock begins at the parent's
// current reading. Branches share the recorder. The caller must later pass
// the branch to Join on the parent.
func (t *Task) Fork() *Task {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Task{mode: t.mode, now: t.now, label: t.label, rec: t.rec, sink: t.sink}
}

// ForkN starts n parallel branches at once; the caller must later pass all
// of them to Join on the parent. On a nil task it returns n nil branches,
// which every Task method tolerates.
func (t *Task) ForkN(n int) []*Task {
	branches := make([]*Task, n)
	for i := range branches {
		branches[i] = t.Fork()
	}
	return branches
}

// Join merges completed parallel branches back into the parent: the parent
// clock advances to the latest branch reading (virtual mode) and the
// branches' spent work is added to the parent's total.
func (t *Task) Join(branches ...*Task) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range branches {
		if b == nil {
			continue
		}
		b.mu.Lock()
		if b.now > t.now {
			t.now = b.now
		}
		t.spent += b.spent
		b.mu.Unlock()
	}
}

// AdvanceTo moves the virtual clock forward to at least d without charging
// work; the workflow navigator uses it to start an activity at the latest
// end time of its predecessors.
func (t *Task) AdvanceTo(d time.Duration) {
	if t == nil || t.mode != ModeVirtual {
		return
	}
	t.mu.Lock()
	if d > t.now {
		t.now = d
	}
	t.mu.Unlock()
}

// Step is one named entry of a recorded breakdown.
type Step struct {
	Name  string
	Total time.Duration
}

// Recorder accumulates time portions by step name, preserving first-seen
// order. It is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	order []string
	total map[string]time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{total: make(map[string]time.Duration)}
}

// Add attributes d to the named step.
func (r *Recorder) Add(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.total[name]; !ok {
		r.order = append(r.order, name)
	}
	r.total[name] += d
}

// Steps returns the recorded steps in first-seen order.
func (r *Recorder) Steps() []Step {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Step, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, Step{Name: n, Total: r.total[n]})
	}
	return out
}

// Total returns the sum over all steps.
func (r *Recorder) Total() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	for _, d := range r.total {
		sum += d
	}
	return sum
}

// Percentages returns each step's share of the total, in first-seen order,
// as (name, percent) pairs. Shares are rounded to the nearest integer.
func (r *Recorder) Percentages() []struct {
	Name    string
	Percent int
} {
	total := r.Total()
	steps := r.Steps()
	out := make([]struct {
		Name    string
		Percent int
	}, len(steps))
	for i, s := range steps {
		p := 0
		if total > 0 {
			p = int(float64(s.Total)/float64(total)*100 + 0.5)
		}
		out[i] = struct {
			Name    string
			Percent int
		}{s.Name, p}
	}
	return out
}

// SortedSteps returns the steps ordered by descending total.
func (r *Recorder) SortedSteps() []Step {
	steps := r.Steps()
	sort.Slice(steps, func(i, j int) bool { return steps[i].Total > steps[j].Total })
	return steps
}

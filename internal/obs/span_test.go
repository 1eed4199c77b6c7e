package obs

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fedwf/internal/simlat"
)

func TestNilSpanIsInert(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.AddStep("x", time.Second)
	sp.End(simlat.NewVirtualTask())
	if sp.Name() != "" || sp.Elapsed() != 0 || sp.Steps() != nil || sp.Children() != nil {
		t.Error("nil span leaked state")
	}
}

func TestStartSpanWithoutTracerReturnsNil(t *testing.T) {
	task := simlat.NewVirtualTask()
	if sp := StartSpan(task, "x"); sp != nil {
		t.Fatalf("got span %v without a tracer", sp.Name())
	}
}

func TestTraceBuildsTreeAndRestoresSink(t *testing.T) {
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root")
	task.Step("a", 10*simlat.PaperMS)

	child := StartSpan(task, "child", Attr{Key: "k", Value: "v"})
	task.Step("b", 5*simlat.PaperMS)
	child.End(task)

	task.Step("a", 1*simlat.PaperMS)
	root := tr.Finish()

	if task.SpanSink() != nil {
		t.Error("sink not detached after Finish")
	}
	if root.Elapsed() != 16*simlat.PaperMS {
		t.Errorf("root elapsed = %v", root.Elapsed())
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "child" {
		t.Fatalf("children = %v", kids)
	}
	if kids[0].Start() != 10*simlat.PaperMS || kids[0].Elapsed() != 5*simlat.PaperMS {
		t.Errorf("child start=%v elapsed=%v", kids[0].Start(), kids[0].Elapsed())
	}
	// Steps land on the span that was current when they were charged.
	rootSteps := root.Steps()
	if len(rootSteps) != 1 || rootSteps[0].Name != "a" || rootSteps[0].Total != 11*simlat.PaperMS {
		t.Errorf("root steps = %v", rootSteps)
	}
	totals := root.StepTotals()
	if len(totals) != 2 || totals[0].Total != 11*simlat.PaperMS || totals[1].Total != 5*simlat.PaperMS {
		t.Errorf("step totals = %v", totals)
	}
}

func TestStepTotalsMatchRecorderAcrossForks(t *testing.T) {
	task := simlat.NewVirtualTask()
	rec := simlat.NewRecorder()
	task.SetRecorder(rec)
	tr := Trace(task, "root")

	task.Step("setup", 3*simlat.PaperMS)
	branches := task.ForkN(4)
	for i, b := range branches {
		sp := StartSpan(b, "worker")
		b.Step("work", time.Duration(i+1)*simlat.PaperMS)
		sp.End(b)
	}
	task.Join(branches...)
	task.Step("teardown", 2*simlat.PaperMS)
	root := tr.Finish()

	want := map[string]time.Duration{}
	for _, st := range rec.Steps() {
		want[st.Name] = st.Total
	}
	got := map[string]time.Duration{}
	var sum time.Duration
	for _, st := range root.StepTotals() {
		got[st.Name] = st.Total
		sum += st.Total
	}
	if len(got) != len(want) {
		t.Fatalf("step sets differ: got %v want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("step %q: trace %v, recorder %v", name, got[name], w)
		}
	}
	if sum != rec.Total() {
		t.Errorf("trace total %v != recorder total %v", sum, rec.Total())
	}
	// Forked branch elapsed: join is max-of-branches, so root spans 3+4+2.
	if root.Elapsed() != 9*simlat.PaperMS {
		t.Errorf("root elapsed = %v", root.Elapsed())
	}
}

func TestChildrenOrderDeterministic(t *testing.T) {
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root")
	branches := task.ForkN(3)
	for i := len(branches) - 1; i >= 0; i-- {
		b := branches[i]
		b.Step("skew", time.Duration(i)*simlat.PaperMS)
		sp := StartSpan(b, "w")
		sp.End(b)
	}
	task.Join(branches...)
	root := tr.Finish()
	kids := root.Children()
	for i := 1; i < len(kids); i++ {
		if kids[i-1].Start() > kids[i].Start() {
			t.Fatalf("children out of order: %v then %v", kids[i-1].Start(), kids[i].Start())
		}
	}
}

func TestRenderAndSummary(t *testing.T) {
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root", Attr{Key: "arch", Value: "wfms"})
	sp := StartSpan(task, "inner")
	task.Step("work", 4*simlat.PaperMS)
	sp.End(task)
	root := tr.Finish()

	out := Render(root)
	if !strings.Contains(out, "root start=0.0ms elapsed=4.0ms arch=wfms") {
		t.Errorf("render root line missing:\n%s", out)
	}
	if !strings.Contains(out, "  inner start=0.0ms elapsed=4.0ms steps=[work:4.0ms]") {
		t.Errorf("render child line missing:\n%s", out)
	}
	if got := Summary(root); got != "root=4.0ms>inner=4.0ms" {
		t.Errorf("summary = %q", got)
	}
	if Summary(nil) != "" {
		t.Error("nil summary not empty")
	}
}

func TestEndOnlyRestoresWhenCurrent(t *testing.T) {
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root")
	a := StartSpan(task, "a")
	b := StartSpan(task, "b")
	// Ending the outer span while the inner is current must not clobber
	// the sink (mirrors a leaked inner span).
	a.End(task)
	if CurrentSpan(task) != b {
		t.Error("ending non-current span moved the sink")
	}
	b.End(task)
	if CurrentSpan(task) != a {
		t.Error("sink not restored to b's parent")
	}
	tr.Finish()
	if task.SpanSink() != nil {
		t.Error("sink not detached after Finish")
	}
}

// A span with one attribute, one step label and one child used to cost five
// allocations beyond its parent's child list: the Span, its step map and
// the map's first group, the order slice, the attribute slice, and a sixth
// for the child slice. With the three stored inline it is one, and the
// Span stays inside the 256-byte size class, so spans without steps pay
// no more bytes than the Span and map header did.
func TestSpanAllocationBudget(t *testing.T) {
	if size := unsafe.Sizeof(Span{}); size > 256 {
		t.Errorf("a Span is %d bytes, past the 256-byte size class", size)
	}
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root")
	root := tr.Root()
	remote := SpanFromData(&SpanData{Name: "rpc.serve", ElapsedNS: int64(simlat.PaperMS)}, 0)
	var sp *Span
	allocs := testing.AllocsPerRun(100, func() {
		// Every run's span is the root's only child, so only it may allocate.
		root.children = root.children[:0]
		sp = StartSpan(task, "exec.op", Attr{Key: "op", Value: "Scan"})
		task.Step("work", time.Microsecond)
		Graft(sp, remote)
		sp.End(task)
	})
	tr.Finish()
	if len(sp.Attrs()) != 1 || len(sp.Steps()) != 1 || len(sp.Children()) != 1 {
		t.Fatalf("span shape: %v attrs, %v steps, %d children", sp.Attrs(), sp.Steps(), len(sp.Children()))
	}
	if allocs != 1 {
		t.Errorf("opening, annotating, charging and closing a span allocates %.0f times, want 1", allocs)
	}
}

// TestConcurrentStepsAndChildren forks eight branches under one span. Each
// charges a label they all share and one of its own to that span, then
// opens a child at the same instant as every other branch. The span's
// steps must total every charge in the order each label was first charged,
// and its children must come out in their (start, name, attributes) order
// however the branches raced (run it with -race).
func TestConcurrentStepsAndChildren(t *testing.T) {
	const d = simlat.PaperMS
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root")
	fan := StartSpan(task, "fan")
	task.Step("shared", d)
	branches := task.ForkN(8)
	var (
		mu    sync.Mutex
		first []string // own labels in the order fan first saw them
		wg    sync.WaitGroup
	)
	for i, b := range branches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Step("shared", d)
			own := "own-" + strconv.Itoa(i)
			mu.Lock()
			b.Step(own, d)
			first = append(first, own)
			mu.Unlock()
			c := StartSpan(b, "w", Attr{Key: "worker", Value: strconv.Itoa(i)})
			b.Step("inner", d)
			b.Step("inner", d)
			c.End(b)
		}()
	}
	wg.Wait()
	task.Join(branches...)
	fan.End(task)
	tr.Finish()

	want := []StepTotal{{Name: "shared", Total: 9 * d}}
	for _, own := range first {
		want = append(want, StepTotal{Name: own, Total: d})
	}
	if got := fan.Steps(); !reflect.DeepEqual(got, want) {
		t.Errorf("fan steps = %v, want %v", got, want)
	}
	kids := fan.Children()
	if len(kids) != len(branches) {
		t.Fatalf("fan has %d children, want %d", len(kids), len(branches))
	}
	for i, c := range kids {
		if w := c.Attrs()[0].Value; w != strconv.Itoa(i) {
			t.Errorf("child %d is worker %s", i, w)
		}
		if c.Start() != 3*d || c.Elapsed() != 2*d {
			t.Errorf("worker %d: start %v elapsed %v, want %v and %v", i, c.Start(), c.Elapsed(), 3*d, 2*d)
		}
		if got := c.Steps(); len(got) != 1 || got[0] != (StepTotal{Name: "inner", Total: 2 * d}) {
			t.Errorf("worker %d steps = %v", i, got)
		}
	}
	if again := fan.Children(); !reflect.DeepEqual(again, kids) {
		t.Error("a second Children call reordered the children")
	}
}

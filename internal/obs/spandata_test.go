package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fedwf/internal/simlat"
)

// buildTree makes a small finished trace: root with two children, steps,
// and attrs.
func buildTree(t testing.TB) *Span {
	t.Helper()
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root", Attr{Key: "arch", Value: "wfms"})
	task.Spend(simlat.PaperMS)
	c1 := StartSpan(task, "child-a", Attr{Key: "fn", Value: "F"})
	task.Step("work", 2*simlat.PaperMS)
	c1.End(task)
	c2 := StartSpan(task, "child-b")
	task.Spend(simlat.PaperMS)
	c2.End(task)
	return tr.Finish()
}

func TestSnapshotRoundTrip(t *testing.T) {
	root := buildTree(t)
	d := SnapshotSpan(root)
	if d.Name != "root" || len(d.Children) != 2 || d.SpanCount() != 3 {
		t.Fatalf("snapshot shape: %+v", d)
	}
	if d.ElapsedNS != int64(4*simlat.PaperMS) {
		t.Errorf("root elapsed = %d", d.ElapsedNS)
	}
	// Rendering the snapshot matches rendering the live tree.
	if got, want := RenderData(d), Render(root); got != want {
		t.Errorf("RenderData diverges from Render:\n%q\n%q", got, want)
	}
	// Restoring with a shift moves every start.
	back := SpanFromData(d, 10*simlat.PaperMS)
	if back.Start() != 10*simlat.PaperMS {
		t.Errorf("shifted root start = %v", back.Start())
	}
	kids := back.Children()
	if len(kids) != 2 || kids[0].Name() != "child-a" || kids[0].Start() != 11*simlat.PaperMS {
		t.Errorf("shifted children: %v start=%v", kids, kids[0].Start())
	}
	// Step attributions survive the round trip.
	tot := back.StepTotals()
	found := false
	for _, st := range tot {
		if st.Name == "work" && st.Total == 2*simlat.PaperMS {
			found = true
		}
	}
	if !found {
		t.Errorf("step totals after round trip: %v", tot)
	}
}

func TestTraceAndSpanIDs(t *testing.T) {
	root := buildTree(t)
	kids := root.Children()
	if root.TraceID() == "" || root.TraceID() != kids[0].TraceID() {
		t.Errorf("children must resolve the root's trace ID: %q vs %q", root.TraceID(), kids[0].TraceID())
	}
	root.SetTraceID("cafe")
	if kids[1].TraceID() != "cafe" {
		t.Errorf("SetTraceID not visible from child: %q", kids[1].TraceID())
	}
	if kids[0].ID() == "" || kids[0].ID() != kids[0].ID() {
		t.Error("span ID must be stable once assigned")
	}
	if kids[0].ID() == kids[1].ID() {
		t.Error("distinct spans share an ID")
	}
	var nilSpan *Span
	if nilSpan.ID() != "" || nilSpan.TraceID() != "" {
		t.Error("nil span IDs must be empty")
	}
}

func TestContextFrom(t *testing.T) {
	task := simlat.NewVirtualTask()
	if tc := ContextFrom(task); tc.Sampled || tc.TraceID != "" {
		t.Errorf("untraced task context = %+v", tc)
	}
	tr := Trace(task, "root")
	tc := ContextFrom(task)
	if !tc.Sampled || tc.TraceID != tr.Root().TraceID() || tc.SpanID != tr.Root().ID() {
		t.Errorf("traced context = %+v", tc)
	}
	tr.Finish()
}

func TestFragmentEncodeDecodeAndGraft(t *testing.T) {
	remote := buildTree(t)
	enc, _ := EncodeTrace(remote, MaxInlineFragmentBytes)
	back, err := DecodeTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.SpanCount() != 3 || RenderData(back) != Render(remote) {
		t.Errorf("decoded fragment:\n%s", RenderData(back))
	}

	// Graft the remote tree under a local parent; it shows up in the
	// local tree's rendering and totals.
	task := simlat.NewVirtualTask()
	tr := Trace(task, "local")
	call := StartSpan(task, "rpc.call")
	Graft(call, SpanFromData(back, call.Start()))
	call.End(task)
	local := tr.Finish()
	rendered := Render(local)
	for _, want := range []string{"local", "rpc.call", "root", "child-a", "child-b"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("grafted render lacks %q:\n%s", want, rendered)
		}
	}
	tot := local.StepTotals()
	ok := false
	for _, st := range tot {
		if st.Name == "work" && st.Total == 2*simlat.PaperMS {
			ok = true
		}
	}
	if !ok {
		t.Errorf("grafted steps missing: %v", tot)
	}
}

func TestEncodeTracePrunesToCap(t *testing.T) {
	// A deep chain: root -> c -> c -> ... (depth 20), every name its own.
	task := simlat.NewVirtualTask()
	tr := Trace(task, "deep")
	spans := make([]*Span, 0, 20)
	for i := 0; i < 20; i++ {
		spans = append(spans, StartSpan(task, fmt.Sprintf("%02d%s", i, strings.Repeat("x", 50))))
		task.Spend(simlat.PaperMS)
	}
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End(task)
	}
	root := tr.Finish()
	full, _ := EncodeTrace(root, 0)
	limit := len(full) / 3
	enc, _ := EncodeTrace(root, limit)
	if len(enc) > limit {
		t.Errorf("pruned size %d > cap %d", len(enc), limit)
	}
	cut, err := DecodeTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	if height(cut) >= height(SnapshotSpan(root)) {
		t.Errorf("pruning did not reduce depth: %d levels kept", height(cut))
	}
	// Pruned nodes are marked.
	if !strings.Contains(RenderData(cut), "pruned=children") {
		t.Error("pruned tree lacks the pruned marker")
	}
	// Under the cap nothing changes.
	if same, _ := EncodeTrace(root, len(full)); !bytes.Equal(same, full) {
		t.Error("a tree within the cap must encode uncut")
	}
	// Root survives even an impossible cap.
	tinyEnc, n := EncodeTrace(root, 1)
	tiny, err := DecodeTrace(tinyEnc)
	if err != nil || n != 1 || tiny.Name != "deep" {
		t.Errorf("root must survive: %+v, %d spans, %v", tiny, n, err)
	}
}

// height is the number of levels of the tree (a leaf has one).
func height(d *SpanData) int {
	if d == nil {
		return 0
	}
	h := 0
	for _, c := range d.Children {
		h = max(h, height(c))
	}
	return h + 1
}

func TestWaterfall(t *testing.T) {
	root := buildTree(t)
	w := Waterfall(SnapshotSpan(root))
	lines := strings.Split(strings.TrimRight(w, "\n"), "\n")
	if len(lines) != 4 { // header + 3 spans
		t.Fatalf("waterfall lines: %q", w)
	}
	if !strings.HasPrefix(lines[0], "waterfall total=4.0ms") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "[") || !strings.Contains(l, "#") {
			t.Errorf("bar line = %q", l)
		}
	}
	if !strings.Contains(w, "child-a") || !strings.Contains(w, "+2.0ms") {
		t.Errorf("waterfall content:\n%s", w)
	}
	if Waterfall(nil) != "" {
		t.Error("nil waterfall must be empty")
	}
}

func TestSnapshotDeterministicNoIDs(t *testing.T) {
	// Two identical virtual-clock runs must snapshot byte-identically —
	// the reason SpanData carries no random IDs.
	a := SnapshotSpan(buildTree(t))
	b := SnapshotSpan(buildTree(t))
	if RenderData(a) != RenderData(b) {
		t.Error("virtual-clock snapshots differ across runs")
	}
	ea, _ := EncodeTrace(buildTree(t), 0)
	eb, _ := EncodeTrace(buildTree(t), 0)
	if !bytes.Equal(ea, eb) {
		t.Errorf("fragment encodings differ:\n% x\n% x", ea, eb)
	}
}

func TestGraftRaisesParentChain(t *testing.T) {
	// A TCP callee charges its own clock: the caller's rpc.call costs
	// nothing locally, yet the 4ms remote tree grafted under it must stay
	// inside it and inside every ancestor.
	remote := SnapshotSpan(buildTree(t))
	task := simlat.NewVirtualTask()
	tr := Trace(task, "local")
	task.Spend(simlat.PaperMS)
	call := StartSpan(task, "rpc.call")
	Graft(call, SpanFromData(remote, call.Start()))
	call.End(task) // the local clock still reads 1ms: End must not shrink the span
	local := tr.Finish()
	if call.Start() != simlat.PaperMS || call.Elapsed() != 4*simlat.PaperMS {
		t.Errorf("rpc.call = +%v for %v, want +1ms for 4ms", call.Start(), call.Elapsed())
	}
	if local.Elapsed() != 5*simlat.PaperMS {
		t.Errorf("root elapsed = %v, want 5ms", local.Elapsed())
	}

	// A graft under a closed root (a server grafting its handler's fragment
	// after finishing its own trace) raises the closed end too.
	srvTask := simlat.NewVirtualTask()
	serve := Trace(srvTask, "rpc.serve").Finish()
	Graft(serve, SpanFromData(remote, serve.Start()))
	if serve.Elapsed() != 4*simlat.PaperMS {
		t.Errorf("closed root after graft = %v, want 4ms", serve.Elapsed())
	}

	// A grafted tree shorter than the local work leaves the ends alone.
	task = simlat.NewVirtualTask()
	tr = Trace(task, "local")
	call = StartSpan(task, "rpc.call")
	Graft(call, SpanFromData(remote, call.Start()))
	task.Spend(10 * simlat.PaperMS)
	call.End(task)
	if local := tr.Finish(); call.Elapsed() != 10*simlat.PaperMS || local.Elapsed() != 10*simlat.PaperMS {
		t.Errorf("call %v, root %v; want both 10ms", call.Elapsed(), local.Elapsed())
	}
}

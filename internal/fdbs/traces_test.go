package fdbs

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// offerTrace hands c a finished statement whose span tree is root.
func offerTrace(c *collector.Collector, id, stmt string, paper time.Duration, errStr string, forced bool, root *obs.SpanData) {
	live := obs.SpanFromData(root, 0)
	c.Offer(&obs.Statement{TraceID: id, SQL: stmt, Arch: "wfms", Err: errStr, Forced: forced,
		Paper: paper, Wall: time.Millisecond, Root: live, Calls: obs.FedCalls(live, nil)})
}

// lateralTree is the retained lateral_batch span tree obs's codec tests use
// (220 spans, 47 KB of JSON), live, as the server offers it.
func lateralTree(tb testing.TB) *obs.Span {
	tb.Helper()
	b, err := os.ReadFile("../obs/testdata/lateral_batch.json")
	if err != nil {
		tb.Fatal(err)
	}
	var d obs.SpanData
	if err := json.Unmarshal(b, &d); err != nil {
		tb.Fatal(err)
	}
	return obs.SpanFromData(&d, 0)
}

// TestTraceRelations: fed_traces lists the retained traces newest first
// with how each statement ended, and fed_spans holds each kept tree in
// preorder.
func TestTraceRelations(t *testing.T) {
	c := collector.New(collector.Policy{SampleRate: 1}, nil)
	offerTrace(c, "abc", "SELECT * FROM TABLE (GetSuppQual('Supplier3')) AS Q", 10*simlat.PaperMS, "", false,
		&obs.SpanData{Name: "fdbs.exec", ElapsedNS: int64(10 * simlat.PaperMS), Children: []*obs.SpanData{{
			Name: "engine.statement", StartNS: int64(simlat.PaperMS), ElapsedNS: int64(8 * simlat.PaperMS),
			Attrs: []obs.Attr{{Key: "rows", Value: "1"}}, Steps: []obs.StepData{{Name: "parse", NS: int64(2 * simlat.PaperMS)}}}}})
	offerTrace(c, "bad", "SELECT nope", simlat.PaperMS, "no such table", true,
		&obs.SpanData{Name: "fdbs.exec", ElapsedNS: int64(simlat.PaperMS)})

	traces, err := TracesTable(c)
	if err != nil {
		t.Fatal(err)
	}
	want := "bad | SELECT nope | wfms | no such table | TRUE | 1 | 1 | 1\n" +
		"abc | SELECT * FROM TABLE (GetSuppQual('Supplier3')) AS Q | wfms |  | FALSE | 10 | 1 | 2\n"
	if got := rowsText(traces); got != want {
		t.Errorf("fed_traces:\n%s\nwant:\n%s", got, want)
	}
	spans, err := SpansTable(c)
	if err != nil {
		t.Fatal(err)
	}
	want = "bad | 0 | -1 | 0 | fdbs.exec | 0 | 1 |  | \n" +
		"abc | 0 | -1 | 0 | fdbs.exec | 0 | 10 |  | \n" +
		"abc | 1 | 0 | 1 | engine.statement | 1 | 8 | rows=1 | parse:2.0ms\n"
	if got := rowsText(spans); got != want {
		t.Errorf("fed_spans:\n%s\nwant:\n%s", got, want)
	}
}

// rowsText renders a table's rows, one line each.
func rowsText(tab *types.Table) string {
	var b strings.Builder
	for _, r := range tab.Rows {
		vals := make([]string, len(r))
		for i, v := range r {
			if vals[i] = v.String(); v.Kind() == types.KindString {
				vals[i] = v.Str()
			}
		}
		b.WriteString(strings.Join(vals, " | ") + "\n")
	}
	return b.String()
}

// spanRows is what fed_spans holds for trace id with tree d: its spans in
// preorder, each with its parent's preorder index.
func spanRows(id string, d *obs.SpanData) string {
	var b strings.Builder
	next := 0
	var walk func(d *obs.SpanData, parent, depth int)
	walk = func(d *obs.SpanData, parent, depth int) {
		span := next
		next++
		attrs := make([]string, len(d.Attrs))
		for i, a := range d.Attrs {
			attrs[i] = a.String()
		}
		fmt.Fprintf(&b, "%s | %d | %d | %d | %s | %s | %s | %s | %s\n", id, span, parent, depth, d.Name,
			types.NewFloat(float64(d.StartNS)/float64(simlat.PaperMS)), types.NewFloat(float64(d.ElapsedNS)/float64(simlat.PaperMS)),
			strings.Join(attrs, " "), obs.FormatSteps(d.Steps))
		for _, c := range d.Children {
			walk(c, span, depth+1)
		}
	}
	walk(d, -1, 0)
	return b.String()
}

// referenceTruncate and referencePrune state the collector's byte cap: the
// snapshot cut level by level, keeping the deepest cut whose encoding fits
// the cap, else the root alone.
func referenceTruncate(d *obs.SpanData, depth int) *obs.SpanData {
	out := &obs.SpanData{Name: d.Name, StartNS: d.StartNS, ElapsedNS: d.ElapsedNS,
		Attrs: append([]obs.Attr(nil), d.Attrs...), Steps: append([]obs.StepData(nil), d.Steps...)}
	if depth == 1 {
		if len(d.Children) > 0 {
			out.Attrs = append(out.Attrs, obs.Attr{Key: "pruned", Value: "children"})
		}
		return out
	}
	for _, c := range d.Children {
		out.Children = append(out.Children, referenceTruncate(c, depth-1))
	}
	return out
}

func referencePrune(d *obs.SpanData, maxBytes int) *obs.SpanData {
	size := func(d *obs.SpanData) int {
		enc, _ := obs.EncodeTrace(obs.SpanFromData(d, 0), 0)
		return len(enc)
	}
	if size(d) <= maxBytes {
		return d
	}
	var height func(d *obs.SpanData) int
	height = func(d *obs.SpanData) int {
		h := 0
		for _, c := range d.Children {
			h = max(h, height(c))
		}
		return h + 1
	}
	for depth := height(d) - 1; depth >= 1; depth-- {
		if cut := referenceTruncate(d, depth); size(cut) <= maxBytes {
			return cut
		}
	}
	return referenceTruncate(d, 1)
}

// TestSpanRowsMatchPrunedTree: fed_spans holds exactly the reference cut of
// the snapshot, span for span, with and without pruning, and fed_traces
// counts its spans.
func TestSpanRowsMatchPrunedTree(t *testing.T) {
	for _, maxBytes := range []int{0, 5000, 2000, 300} {
		c := collector.New(collector.Policy{SampleRate: -1, MaxTraceBytes: maxBytes}, nil)
		root := lateralTree(t)
		root.SetAttr("error", "rpc: <nil> & \"quoted\"\n\u2028")
		st := obs.Statement{TraceID: "lat", SQL: "SELECT d.SupplierNo FROM drv d WHERE d.SupplierNo >= 0",
			Arch: "wfms", Err: "boom <x>", Paper: 1291 * simlat.PaperMS, Wall: 3 * time.Millisecond,
			Root: root, Calls: obs.FedCalls(root, nil)}
		if !c.Offer(&st) {
			t.Fatal("error trace dropped")
		}
		ref := referencePrune(obs.SnapshotSpan(root), c.Policy().MaxTraceBytes)

		spans, err := SpansTable(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowsText(spans), spanRows("lat", ref); got != want {
			t.Fatalf("cap %d: fed_spans differs:\n%s\nwant:\n%s", maxBytes, got, want)
		}
		traces, err := TracesTable(c)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("lat | %s | wfms | boom <x> | FALSE | 1291 | 3 | %d\n", st.SQL, ref.SpanCount())
		if got := rowsText(traces); got != want {
			t.Fatalf("cap %d: fed_traces:\n%s\nwant:\n%s", maxBytes, got, want)
		}
		t.Logf("cap %d: %d spans kept", maxBytes, ref.SpanCount())
	}
}

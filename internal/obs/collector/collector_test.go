package collector

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
)

func mkTrace(id, stmt string, paper time.Duration, errStr string, forced bool) Trace {
	return Trace{
		Meta: Meta{ID: id, Statement: stmt, Arch: "wfms", Error: errStr, Forced: forced,
			Paper: paper, Wall: time.Millisecond},
		Root: &obs.SpanData{Name: "fdbs.exec", ElapsedNS: int64(paper)},
	}
}

// offer hands c a trace whose span tree is t.Root, live, as the server
// hands it a finished statement's tree.
func offer(c *Collector, t Trace) bool {
	root := obs.SpanFromData(t.Root, 0)
	return c.Offer(&obs.Statement{TraceID: t.ID, SQL: t.Statement, Arch: t.Arch, Err: t.Error,
		Forced: t.Forced, Paper: t.Paper, Wall: t.Wall, Root: root, Calls: obs.FedCalls(root, nil)})
}

func TestDefaults(t *testing.T) {
	pol := Default(Policy{})
	if pol.Capacity != 512 || pol.MaxTraceBytes != 128<<10 || pol.LatencyThreshold != 250*simlat.PaperMS || pol.SampleRate != 0.05 {
		t.Errorf("defaults = %+v", pol)
	}
	if got := Default(Policy{SampleRate: -1}).SampleRate; got != -1 {
		t.Errorf("negative sample rate must survive: %v", got)
	}
}

func TestTailSamplingRules(t *testing.T) {
	// Probabilistic retention off: only error/slow/forced traces stay.
	c := New(Policy{SampleRate: -1, LatencyThreshold: 100 * simlat.PaperMS}, nil)
	if offer(c, mkTrace("fast", "SELECT 1", simlat.PaperMS, "", false)) {
		t.Error("fast healthy trace retained with sampling off")
	}
	if !offer(c, mkTrace("err", "SELECT nope", simlat.PaperMS, "boom", false)) {
		t.Error("error trace dropped")
	}
	if !offer(c, mkTrace("slow", "SELECT big", 200*simlat.PaperMS, "", false)) {
		t.Error("slow trace dropped")
	}
	if !offer(c, mkTrace("forced", "SELECT t", simlat.PaperMS, "", true)) {
		t.Error("client-sampled trace dropped")
	}
	if c.Len() != 3 {
		t.Errorf("retained = %d", c.Len())
	}
	// Rate 1: everything stays.
	all := New(Policy{SampleRate: 1}, nil)
	if !offer(all, mkTrace("any", "SELECT 1", simlat.PaperMS, "", false)) {
		t.Error("rate-1 collector dropped a trace")
	}
	// Deterministic seeded sampling: same seed, same decisions.
	decide := func(seed int64) []bool {
		c := New(Policy{SampleRate: 0.5, Seed: seed}, nil)
		out := make([]bool, 20)
		for i := range out {
			out[i] = offer(c, mkTrace(fmt.Sprint(i), "s", simlat.PaperMS, "", false))
		}
		return out
	}
	a, b := decide(7), decide(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded sampling not deterministic at %d", i)
		}
	}
}

func TestRingWraparoundNewestFirst(t *testing.T) {
	c := New(Policy{Capacity: 4, SampleRate: 1}, nil)
	for i := 0; i < 10; i++ {
		offer(c, mkTrace(fmt.Sprintf("t%d", i), "SELECT 1", simlat.PaperMS, "", false))
	}
	if c.Len() != 4 {
		t.Fatalf("ring length = %d", c.Len())
	}
	got := c.List(Filter{})
	if len(got) != 4 || got[0].ID != "t9" || got[3].ID != "t6" {
		ids := make([]string, len(got))
		for i, tr := range got {
			ids[i] = tr.ID
		}
		t.Errorf("newest-first listing = %v", ids)
	}
	if c.Get("t0") != nil {
		t.Error("evicted trace still retrievable")
	}
	if c.Get("t9") == nil {
		t.Error("newest trace lost")
	}
}

func TestPerTraceByteCap(t *testing.T) {
	c := New(Policy{SampleRate: 1, MaxTraceBytes: 400}, nil)
	deep := &obs.SpanData{Name: "root"}
	cur := deep
	for i := 0; i < 30; i++ {
		child := &obs.SpanData{Name: strings.Repeat("n", 30)}
		cur.Children = []*obs.SpanData{child}
		cur = child
	}
	if !offer(c, Trace{Meta: Meta{ID: "big", Statement: "S"}, Root: deep}) {
		t.Fatal("trace dropped")
	}
	stored := c.Get("big")
	if stored.Root.Size() > 400 {
		t.Errorf("stored tree %d bytes > cap", stored.Root.Size())
	}
}

func TestListFilters(t *testing.T) {
	c := New(Policy{SampleRate: 1}, nil)
	offer(c, mkTrace("a", "SELECT * FROM TABLE (GetSuppQual('Supplier3')) AS Q", 10*simlat.PaperMS, "", false))
	offer(c, mkTrace("b", "SELECT nonsense", 2*simlat.PaperMS, "no such table", false))
	offer(c, mkTrace("c", "INSERT INTO t VALUES (1)", 500*simlat.PaperMS, "", false))
	if got := c.List(Filter{Statement: "getsuppqual"}); len(got) != 1 || got[0].ID != "a" {
		t.Errorf("statement filter: %v", got)
	}
	if got := c.List(Filter{ErrorsOnly: true}); len(got) != 1 || got[0].ID != "b" {
		t.Errorf("errors filter: %v", got)
	}
	if got := c.List(Filter{MinPaper: 100 * simlat.PaperMS}); len(got) != 1 || got[0].ID != "c" {
		t.Errorf("latency filter: %v", got)
	}
	if got := c.List(Filter{Limit: 2}); len(got) != 2 {
		t.Errorf("limit: %v", got)
	}
}

func TestFedFuncHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Policy{SampleRate: -1}, reg)
	tr := mkTrace("x", "SELECT 1", simlat.PaperMS, "", false)
	tr.Root.Children = []*obs.SpanData{{
		Name:      "udtf.workflow",
		ElapsedNS: int64(80 * simlat.PaperMS),
		Attrs:     []obs.Attr{{Key: "fn", Value: "GetNoSuppComp"}},
	}}
	offer(c, tr) // dropped by sampling, but histograms observe every offer
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		`fedwf_fedfunc_latency_paper_ms_count{fn="GetNoSuppComp"} 1`,
		"fedwf_traces_offered_total 1",
		"fedwf_traces_sampled_out_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestConcurrentOfferListGet exercises the ring buffer under the race
// detector (CI runs go test -race): offers encode live trees while readers
// list, summarize and decode them.
func TestConcurrentOfferListGet(t *testing.T) {
	c := New(Policy{Capacity: 8, SampleRate: 1}, obs.NewRegistry())
	mux := http.NewServeMux()
	c.Register(mux)
	root := lateralTree(t)
	calls := obs.FedCalls(root, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%50 == 0 {
					// Every goroutine also encodes the one shared live tree.
					c.Offer(&obs.Statement{TraceID: "lateral", SQL: "SELECT", Forced: true, Root: root, Calls: calls})
					continue
				}
				offer(c, mkTrace(fmt.Sprintf("g%d-%d", g, i), "SELECT 1", simlat.PaperMS, "", false))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, sum := range c.List(Filter{Limit: 4}) {
				if sum.Spans == 0 {
					t.Errorf("listed trace %s has no tree", sum.ID)
					return
				}
			}
			if tr := c.Get("lateral"); tr != nil && tr.Root.SpanCount() != 220 {
				t.Errorf("lateral trace decoded to %d spans", tr.Root.SpanCount())
				return
			}
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?limit=3", nil))
			c.Len()
		}
	}()
	wg.Wait()
	if c.Len() != 8 {
		t.Errorf("ring length after concurrency = %d", c.Len())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Policy{SampleRate: 1}, reg)
	offer(c, mkTrace("abc", "SELECT * FROM TABLE (GetSuppQual('Supplier3')) AS Q", 10*simlat.PaperMS, "", false))
	offer(c, mkTrace("bad", "SELECT nope", simlat.PaperMS, "no such table", false))
	mux := obs.MetricsMux(reg)
	c.Register(mux)

	// Listing.
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	if rr.Code != 200 {
		t.Fatalf("/traces = %d", rr.Code)
	}
	var sums []Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].ID != "bad" || sums[0].Error == "" || sums[1].Spans != 1 {
		t.Errorf("summaries = %+v", sums)
	}
	// Filtered listing.
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?errors=1", nil))
	sums = nil
	json.Unmarshal(rr.Body.Bytes(), &sums)
	if len(sums) != 1 || sums[0].ID != "bad" {
		t.Errorf("error filter over HTTP = %+v", sums)
	}
	// Bad query parameters.
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?min_ms=zzz", nil))
	if rr.Code != 400 {
		t.Errorf("bad min_ms = %d", rr.Code)
	}

	// One trace as JSON.
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/abc", nil))
	if rr.Code != 200 || !strings.Contains(rr.Header().Get("Content-Type"), "json") {
		t.Fatalf("/traces/abc = %d %s", rr.Code, rr.Header().Get("Content-Type"))
	}
	var tr Trace
	if err := json.Unmarshal(rr.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != "abc" || tr.Root == nil || tr.Root.Name != "fdbs.exec" {
		t.Errorf("trace JSON = %+v", tr)
	}
	// Text waterfall.
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/abc?format=text", nil))
	body := rr.Body.String()
	for _, want := range []string{"trace abc", "waterfall total=", "fdbs.exec", "#"} {
		if !strings.Contains(body, want) {
			t.Errorf("text rendering missing %q:\n%s", want, body)
		}
	}
	// Unknown trace.
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/nope", nil))
	if rr.Code != 404 {
		t.Errorf("missing trace = %d", rr.Code)
	}
}

// lateralTree is the retained lateral_batch span tree obs's codec tests use
// (220 spans, 47 KB of JSON), live, as the server offers it.
func lateralTree(tb testing.TB) *obs.Span {
	tb.Helper()
	b, err := os.ReadFile("../testdata/lateral_batch.json")
	if err != nil {
		tb.Fatal(err)
	}
	var d obs.SpanData
	if err := json.Unmarshal(b, &d); err != nil {
		tb.Fatal(err)
	}
	return obs.SpanFromData(&d, 0)
}

// referenceTrace is the stored trace as /traces/<id> rendered it when the
// collector kept one flat struct with the span tree in it.
type referenceTrace struct {
	ID        string        `json:"id"`
	Statement string        `json:"statement"`
	Arch      string        `json:"arch,omitempty"`
	Error     string        `json:"error,omitempty"`
	Forced    bool          `json:"forced,omitempty"`
	Paper     time.Duration `json:"paper_ns"`
	Wall      time.Duration `json:"wall_ns"`
	Root      *obs.SpanData `json:"root,omitempty"`
}

// referenceTruncate and referencePrune are how the collector stored a tree
// before it kept bytes: a pruned copy of the snapshot, cut level by level
// until its marshalled JSON fit the cap.
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

func referencePrune(t *testing.T, d *obs.SpanData, maxBytes int) *obs.SpanData {
	size := func(d *obs.SpanData) int {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
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

// TestTraceEndpointsUnchanged: /traces/<id> as JSON and as text, and the
// listing's span count, are byte for byte what rendering the old stored
// form — the pruned snapshot — gives, with and without pruning.
func TestTraceEndpointsUnchanged(t *testing.T) {
	for _, maxBytes := range []int{0, 20000, 2000, 300} {
		c := New(Policy{SampleRate: -1, MaxTraceBytes: maxBytes}, nil)
		mux := http.NewServeMux()
		c.Register(mux)
		root := lateralTree(t)
		root.SetAttr("error", "rpc: <nil> & \"quoted\"\n\u2028")
		st := obs.Statement{TraceID: "lat", SQL: "SELECT d.SupplierNo FROM drv d WHERE d.SupplierNo >= 0",
			Arch: "wfms", Err: "boom <x>", Paper: 1291 * simlat.PaperMS, Wall: 3 * time.Millisecond,
			Root: root, Calls: obs.FedCalls(root, nil)}
		if !c.Offer(&st) {
			t.Fatal("error trace dropped")
		}
		ref := referenceTrace{ID: st.TraceID, Statement: st.SQL, Arch: st.Arch, Error: st.Err,
			Paper: st.Paper, Wall: st.Wall, Root: referencePrune(t, obs.SnapshotSpan(root), c.Policy().MaxTraceBytes)}

		var want strings.Builder
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ref); err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/lat", nil))
		if rr.Body.String() != want.String() {
			t.Fatalf("cap %d: /traces/lat JSON differs:\n%s\nwant:\n%s", maxBytes, rr.Body.String(), want.String())
		}

		wantText := fmt.Sprintf("trace %s stmt=%q arch=%s paper=%.3fms wall=%.3fms error=%q\n\n%s\n%s",
			ref.ID, ref.Statement, ref.Arch, float64(ref.Paper)/float64(simlat.PaperMS),
			float64(ref.Wall)/float64(time.Millisecond), ref.Error, obs.Waterfall(ref.Root), obs.RenderData(ref.Root))
		rr = httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/lat?format=text", nil))
		if rr.Body.String() != wantText {
			t.Fatalf("cap %d: /traces/lat text differs:\n%s\nwant:\n%s", maxBytes, rr.Body.String(), wantText)
		}

		rr = httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
		var sums []Summary
		if err := json.Unmarshal(rr.Body.Bytes(), &sums); err != nil {
			t.Fatal(err)
		}
		if len(sums) != 1 || sums[0].Spans != ref.Root.SpanCount() {
			t.Fatalf("cap %d: listing %+v, want %d spans", maxBytes, sums, ref.Root.SpanCount())
		}
		t.Logf("cap %d: %d spans kept", maxBytes, sums[0].Spans)
	}
}

// TestNullChildInPeerFragment: a peer's fragment may carry a null child.
// Grafted under a traced statement it must neither crash the walk that
// finds federated calls nor the encoding of a kept trace.
func TestNullChildInPeerFragment(t *testing.T) {
	frag, err := obs.DecodeFragment(`{"trace_id":"t","root":{"name":"x","children":[null,{"name":"y"}]}}`)
	if err != nil {
		t.Fatal(err)
	}
	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "fdbs.exec")
	call := obs.StartSpan(task, "udtf.workflow", obs.Attr{Key: "fn", Value: "GetSuppQual"})
	obs.Graft(call, obs.SpanFromData(frag.Root, call.Start()))
	task.Spend(simlat.PaperMS)
	call.End(task)
	root := tr.Finish()

	calls := obs.FedCalls(root, nil)
	if len(calls) != 1 || calls[0].Fn != "GetSuppQual" {
		t.Fatalf("federated calls = %+v", calls)
	}
	c := New(Policy{SampleRate: -1}, obs.NewRegistry())
	if !c.Offer(&obs.Statement{TraceID: "peer", SQL: "SELECT", Forced: true, Root: root, Calls: calls}) {
		t.Fatal("forced trace dropped")
	}
	got := c.Get("peer")
	if got == nil || got.Root.SpanCount() != 4 {
		t.Fatalf("stored tree: %+v", got)
	}
	if want := "fdbs.exec\n  udtf.workflow\n    x\n      y\n"; names(got.Root, 0) != want {
		t.Errorf("stored tree:\n%s\nwant:\n%s", names(got.Root, 0), want)
	}
}

// names renders a tree's span names, one indented line each.
func names(d *obs.SpanData, depth int) string {
	s := strings.Repeat("  ", depth) + d.Name + "\n"
	for _, c := range d.Children {
		s += names(c, depth+1)
	}
	return s
}

// TestOfferAllocations pins what a trace costs the collector: a dropped
// one nothing beyond its histogram observations, a kept one its encoding
// and its ring slot.
func TestOfferAllocations(t *testing.T) {
	root := lateralTree(t)
	calls := obs.FedCalls(root, nil)
	if len(calls) == 0 {
		t.Fatal("the lateral tree has no federated calls")
	}
	fast := obs.Statement{TraceID: "x", SQL: "SELECT", Paper: simlat.PaperMS, Root: root, Calls: calls}
	drop := New(Policy{SampleRate: -1}, obs.NewRegistry())
	if n := testing.AllocsPerRun(100, func() { drop.Offer(&fast) }); n != 0 {
		t.Errorf("a dropped Offer allocates %v times, want 0", n)
	}
	forced := fast
	forced.Forced = true
	keep := New(Policy{SampleRate: -1, Capacity: 4}, obs.NewRegistry())
	if n := testing.AllocsPerRun(100, func() { keep.Offer(&forced) }); n != 2 {
		t.Errorf("a kept Offer allocates %v times, want 2 (the encoding and the ring slot)", n)
	}
}

func BenchmarkOffer(b *testing.B) {
	root := lateralTree(b)
	calls := obs.FedCalls(root, nil)
	for _, bc := range []struct {
		name string
		st   obs.Statement
	}{
		{"dropped", obs.Statement{TraceID: "x", SQL: "SELECT", Paper: simlat.PaperMS, Root: root, Calls: calls}},
		{"kept_lateral", obs.Statement{TraceID: "x", SQL: "SELECT", Paper: 1291 * simlat.PaperMS, Root: root, Calls: calls}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(Policy{SampleRate: -1}, obs.NewRegistry())
			b.ReportAllocs()
			for b.Loop() {
				c.Offer(&bc.st)
			}
		})
	}
}

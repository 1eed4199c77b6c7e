package collector

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
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
	got := c.Retained()
	if len(got) != 4 || got[0].ID != "t9" || got[3].ID != "t6" {
		ids := make([]string, len(got))
		for i, tr := range got {
			ids[i] = tr.ID
		}
		t.Errorf("newest-first retained = %v", ids)
	}
	if c.Get("t0") != nil {
		t.Error("evicted trace still retrievable")
	}
	if c.Get("t9") == nil {
		t.Error("newest trace lost")
	}
}

// TestPerTraceByteCap: a tree over the cap is stored as the deepest cut
// whose encoding fits it.
func TestPerTraceByteCap(t *testing.T) {
	const limit = 400
	c := New(Policy{SampleRate: 1, MaxTraceBytes: limit}, nil)
	deep := &obs.SpanData{Name: "root"}
	cur := deep
	for i := 0; i < 30; i++ {
		child := &obs.SpanData{Name: fmt.Sprintf("%02d%s", i, strings.Repeat("n", 30))}
		cur.Children = []*obs.SpanData{child}
		cur = child
	}
	if !offer(c, Trace{Meta: Meta{ID: "big", Statement: "S"}, Root: deep}) {
		t.Fatal("trace dropped")
	}
	stored := c.Get("big")
	if n := encodedLen(stored.Root); n > limit {
		t.Errorf("stored tree %d bytes > cap", n)
	}
	// The reference: encode the tree cut at every depth, keep the deepest
	// cut that fits.
	var want *obs.SpanData
	for depth := 31; depth >= 1 && want == nil; depth-- {
		if cut := chainCut(deep, depth); depth == 1 || encodedLen(cut) <= limit {
			want = cut
		}
	}
	if got, w := names(stored.Root, 0), names(want, 0); got != w || !reflect.DeepEqual(stored.Root, want) {
		t.Errorf("stored tree:\n%s\nwant the deepest cut that fits:\n%s", got, w)
	}
}

// encodedLen is the length of a tree's encoding, uncapped.
func encodedLen(d *obs.SpanData) int {
	enc, _ := obs.EncodeTrace(obs.SpanFromData(d, 0), 0)
	return len(enc)
}

// chainCut copies a chain of single children cut to depth levels, the last
// carrying pruned=children when it lost one.
func chainCut(d *obs.SpanData, depth int) *obs.SpanData {
	out := &obs.SpanData{Name: d.Name}
	switch {
	case len(d.Children) == 0:
	case depth == 1:
		out.Attrs = []obs.Attr{{Key: "pruned", Value: "children"}}
	default:
		out.Children = []*obs.SpanData{chainCut(d.Children[0], depth-1)}
	}
	return out
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
// list and decode them.
func TestConcurrentOfferListGet(t *testing.T) {
	c := New(Policy{Capacity: 8, SampleRate: 1}, obs.NewRegistry())
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
			for _, k := range c.Retained() {
				if k.Spans == 0 {
					t.Errorf("listed trace %s has no tree", k.ID)
					return
				}
				if i%20 == 0 {
					if _, err := k.Tree(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if tr := c.Get("lateral"); tr != nil && tr.Root.SpanCount() != 220 {
				t.Errorf("lateral trace decoded to %d spans", tr.Root.SpanCount())
				return
			}
			c.Len()
		}
	}()
	wg.Wait()
	if c.Len() != 8 {
		t.Errorf("ring length after concurrency = %d", c.Len())
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

// TestNullChildInPeerFragment: a tree rebuilt from its decoded form may
// carry a nil child. Grafted under a traced statement it must neither crash
// the walk that finds federated calls nor the encoding of a kept trace.
func TestNullChildInPeerFragment(t *testing.T) {
	frag := &obs.SpanData{Name: "x", Children: []*obs.SpanData{nil, {Name: "y"}}}
	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "fdbs.exec")
	call := obs.StartSpan(task, "udtf.workflow", obs.Attr{Key: "fn", Value: "GetSuppQual"})
	obs.Graft(call, obs.SpanFromData(frag, call.Start()))
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

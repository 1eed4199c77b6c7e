package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fedwf/internal/simlat"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %v", c.Value())
	}
	again := reg.Counter("c_total", "a counter")
	again.Inc()
	if c.Value() != 4 {
		t.Error("re-registration did not share the series")
	}

	g := reg.Gauge("g", "a gauge")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("gauge = %v", g.Value())
	}

	h := reg.Histogram("h", "a histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if h.Count() != 3 || h.Sum() != 55.5 {
		t.Errorf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}

	v := reg.CounterVec("v_total", "a vec", "arch")
	v.With("wfms").Inc()
	v.With("wfms").Inc()
	v.With("udtf").Inc()
	if v.With("wfms").Value() != 2 || v.With("udtf").Value() != 1 {
		t.Error("labelled series not independent")
	}
}

func TestRegistryPanicsOnMismatch(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("no panic on type mismatch")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "second").Add(2)
	reg.CounterVec("a_total", "first", "arch").With("wf\"ms\n").Inc()
	h := reg.Histogram("lat_ms", "latency", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Families sorted by name; label values escaped.
	if strings.Index(out, "# TYPE a_total counter") > strings.Index(out, "# TYPE b_total counter") {
		t.Errorf("families not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# HELP a_total first",
		`a_total{arch="wf\"ms\n"} 1`,
		"b_total 2",
		`lat_ms_bucket{le="1"} 1`,
		`lat_ms_bucket{le="10"} 2`,
		`lat_ms_bucket{le="+Inf"} 3`,
		"lat_ms_sum 55.5",
		"lat_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "hits").Inc()
	mux := MetricsMux(reg)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "hits_total 1") {
		t.Errorf("/metrics body:\n%s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "ok") {
		t.Errorf("/healthz = %d %q", rr.Code, rr.Body.String())
	}
}

func TestSlowQueryLog(t *testing.T) {
	if NewSlowQueryLog(nil, time.Second) != nil {
		t.Error("nil writer did not disable the log")
	}
	if NewSlowQueryLog(&strings.Builder{}, 0) != nil {
		t.Error("zero threshold did not disable the log")
	}
	var nilLog *SlowQueryLog
	if nilLog.Observe(&Statement{SQL: "SELECT 1", Paper: time.Hour, Wall: time.Hour, Rows: 1}) {
		t.Error("nil log claimed to observe")
	}

	var sb strings.Builder
	l := NewSlowQueryLog(&sb, 100*simlat.PaperMS)
	if l.Observe(&Statement{SQL: "SELECT fast", Paper: 99 * simlat.PaperMS, Wall: time.Millisecond, Rows: 1}) {
		t.Error("below-threshold statement logged")
	}
	if l.Observe(&Statement{SQL: "SELECT failed", Err: "boom", Paper: time.Hour}) {
		t.Error("failed statement logged")
	}
	task := simlat.NewVirtualTask()
	tr := Trace(task, "fdbs.exec")
	task.Step("work", 150*simlat.PaperMS)
	root := tr.Finish()
	if !l.Observe(&Statement{SQL: "SELECT\n  slow", Paper: 150 * simlat.PaperMS, Wall: 2 * time.Millisecond, Rows: 3, Root: root}) {
		t.Error("threshold statement not logged")
	}
	line := sb.String()
	for _, want := range []string{"slow-query", "paper_ms=150.0", "rows=3", `stmt="SELECT slow"`, "fdbs.exec=150.0ms"} {
		if !strings.Contains(line, want) {
			t.Errorf("missing %q in %q", want, line)
		}
	}
}

// TestGaugeReadFrom: a gauge set by ReadFrom reports what its function
// computes, on Value and on the exposition, and calls it outside the
// series lock, so the function may touch the gauge itself.
func TestGaugeReadFrom(t *testing.T) {
	reg := NewRegistry()
	g := reg.GaugeVec("fedwf_test_live_total", "Live things.", "pool").With("a")
	n := 0.0
	g.ReadFrom(func() float64 {
		g.Set(-1) // stored, and never reported while fn is set
		n++
		return n
	})
	if got := g.Value(); got != 1 {
		t.Fatalf("Value = %v, want 1", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fedwf_test_live_total{pool="a"} 2`+"\n") {
		t.Fatalf("exposition does not read the function:\n%s", b.String())
	}
	var nilGauge *Gauge
	nilGauge.ReadFrom(func() float64 { return 1 }) // no-op, like Set
}

// TestKnownSeriesDoesNotAllocate: counting into a series that exists,
// under one label or several, allocates nothing; the label values join
// into a stack buffer to find it. Distinct values keep distinct series.
func TestKnownSeriesDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	byArch := reg.CounterVec("fedwf_test_queries_total", "Queries.", "arch", "status")
	byArch.With("wfms", "ok").Inc()
	if allocs := testing.AllocsPerRun(100, func() { byArch.With("wfms", "ok").Inc() }); allocs != 0 {
		t.Errorf("a known two-label series allocates %.1f times, want 0", allocs)
	}
	byArch.With("udtf", "ok").Inc()
	byArch.With("wfm", "sok").Inc()
	if got := byArch.With("wfms", "ok").Value(); got != 102 {
		t.Errorf("wfms/ok = %v, want 102", got)
	}
	if got := byArch.With("udtf", "ok").Value(); got != 1 {
		t.Errorf("udtf/ok = %v, want 1", got)
	}
}

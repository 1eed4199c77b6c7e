package journal

import (
	"io"
	"testing"
	"time"

	"fedwf/internal/obs"
)

// fullJournal returns a default-capacity journal with metrics attached and
// every slot taken, shaped like a fed_wfms stream: one statement event, 20
// paper-ms long, then eight call and workflow events.
func fullJournal(tb testing.TB) *Journal {
	tb.Helper()
	return fillJournal(tb, obs.NewRegistry())
}

// fillJournal is fullJournal with its series on reg.
func fillJournal(tb testing.TB, reg *obs.Registry) *Journal {
	tb.Helper()
	j := New(Options{})
	j.AttachMetrics(reg)
	for j.Seq() < uint64(2*j.Capacity()) {
		start := j.Now()
		j.AppendStatement(&obs.Statement{Arch: "wfms", Paper: 20 * time.Millisecond}, "fp")
		for i := 0; i < 8; i++ {
			j.Append(Event{Kind: KindActivity, Instance: "wf-000001", Row: -1, StartVT: start})
		}
	}
	if j.Len() != j.Capacity() {
		tb.Fatalf("ring holds %d of %d", j.Len(), j.Capacity())
	}
	return j
}

var sinkSeq uint64

func BenchmarkAppend(b *testing.B) {
	j := fullJournal(b)
	e := Event{Kind: KindCall, Func: "GetSuppQual", Row: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSeq = j.Append(e)
	}
}

func BenchmarkAppendStatement(b *testing.B) {
	j := fullJournal(b)
	st := obs.Statement{Arch: "wfms", Paper: 20 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.AppendStatement(&st, "fp")
	}
}

func BenchmarkSLOReport(b *testing.B) {
	j := fullJournal(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSeq += uint64(len(j.SLOReport().Windows))
	}
}

// BenchmarkWritePrometheus scrapes a registry whose journal holds a full
// default ring: the read side, where the ring gauges and the nine SLO
// gauges compute their values.
func BenchmarkWritePrometheus(b *testing.B) {
	reg := obs.NewRegistry()
	fillJournal(b, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendPathsDoNotAllocate pins the per-statement paths at zero
// allocations on a full ring with metrics attached and no sink.
func TestAppendPathsDoNotAllocate(t *testing.T) {
	j := fullJournal(t)
	stmt := &obs.Statement{Arch: "wfms", Paper: 20 * time.Millisecond}
	// A ring of statements only, as a statement-heavy stream leaves it.
	for i := 0; i < j.Capacity(); i++ {
		j.AppendStatement(stmt, "fp")
	}
	for name, f := range map[string]func(){
		"Append":          func() { j.Append(Event{Kind: KindCall, Func: "GetSuppQual", Row: -1}) },
		"AppendStatement": func() { j.AppendStatement(stmt, "fp") },
		"Advance":         func() { j.Advance(time.Second) },
	} {
		if got := testing.AllocsPerRun(1000, f); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, got)
		}
	}
}

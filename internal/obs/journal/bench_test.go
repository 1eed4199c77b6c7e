package journal

import (
	"testing"
	"time"

	"fedwf/internal/obs"
)

// fullJournal returns a default-capacity journal with metrics attached and
// every slot taken, shaped like a fed_wfms stream: one statement event, 20
// paper-ms long, then eight call and workflow events.
func fullJournal(tb testing.TB) *Journal {
	tb.Helper()
	j := New(Options{})
	j.AttachMetrics(obs.NewRegistry())
	for j.Seq() < uint64(2*j.Capacity()) {
		start := j.AppendStatement(Event{Fingerprint: "fp", Arch: "wfms", Row: -1, DurVT: 20 * time.Millisecond})
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
	e := Event{Fingerprint: "fp", Arch: "wfms", Row: -1, DurVT: 20 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSeq += uint64(j.AppendStatement(e))
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

// TestAppendPathsDoNotAllocate pins the per-statement paths at zero
// allocations on a full ring with metrics attached and no sink.
func TestAppendPathsDoNotAllocate(t *testing.T) {
	j := fullJournal(t)
	stmt := Event{Fingerprint: "fp", Arch: "wfms", Row: -1, DurVT: 20 * time.Millisecond}
	// A ring of statements only: the mark ring is at its largest size, so
	// no run below is charged for its growth.
	for i := 0; i < j.Capacity(); i++ {
		j.AppendStatement(stmt)
	}
	for name, f := range map[string]func(){
		"Append":          func() { j.Append(Event{Kind: KindCall, Func: "GetSuppQual", Row: -1}) },
		"AppendStatement": func() { j.AppendStatement(stmt) },
		"Advance":         func() { j.Advance(time.Second) },
	} {
		if got := testing.AllocsPerRun(1000, f); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, got)
		}
	}
}

package stats

import (
	"testing"
	"time"

	"fedwf/internal/obs"
)

// BenchmarkRecordStatement folds one finished fed_wfms-shaped statement —
// one federated call, counters from its instance — into a warehouse that
// already holds its fingerprint, with the warehouse's metrics attached as
// on a server.
func BenchmarkRecordStatement(b *testing.B) {
	w := NewWarehouse(Options{})
	w.AttachMetrics(obs.NewRegistry())
	st := &obs.Statement{
		SQL:      "SELECT R.Decision FROM TABLE (BuySuppComp(4, 'washer')) AS R",
		Arch:     "wfms",
		Paper:    239 * time.Millisecond,
		Wall:     150 * time.Microsecond,
		Rows:     1,
		Counters: obs.CounterSnapshot{RPCs: 1, Instances: 1},
		Calls:    []obs.FedCall{{Fn: "BuySuppComp", Elapsed: 239 * time.Millisecond}},
	}
	w.RecordStatement(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RecordStatement(st)
	}
}

// TestRecordKnownStatementDoesNotAllocate: folding a statement whose
// fingerprint the warehouse already holds — with new literals, as served
// statements arrive — allocates nothing: it normalizes into a stack
// buffer and looks its entry up without a string.
func TestRecordKnownStatementDoesNotAllocate(t *testing.T) {
	w := NewWarehouse(Options{})
	w.AttachMetrics(obs.NewRegistry())
	st := &obs.Statement{
		SQL:      "SELECT R.Decision FROM TABLE (BuySuppComp(4, 'washer')) AS R",
		Arch:     "wfms",
		Paper:    239 * time.Millisecond,
		Rows:     1,
		Counters: obs.CounterSnapshot{RPCs: 1, Instances: 1},
		Calls:    []obs.FedCall{{Fn: "BuySuppComp", Elapsed: 239 * time.Millisecond}},
	}
	want := w.RecordStatement(st)
	st.SQL = "SELECT R.Decision FROM TABLE (BuySuppComp(7, 'bolt')) AS R"
	var got string
	if allocs := testing.AllocsPerRun(100, func() { got = w.RecordStatement(st) }); allocs != 0 {
		t.Errorf("recording a known statement allocates %.1f times, want 0", allocs)
	}
	if got != want {
		t.Errorf("the statement recorded under %s, want %s", got, want)
	}
}

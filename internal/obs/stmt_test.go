package obs

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestFaultCountsBoundedBySystems: however many faults a statement meets,
// its counters hold one entry per (kind, system), and the per-kind totals
// are the sums over those entries.
func TestFaultCountsBoundedBySystems(t *testing.T) {
	_, c := WithStmtCounters(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				c.AddFault(FaultShed, "pdm")
			}
		}()
	}
	wg.Wait()
	c.AddFault(FaultRetry, "pps")
	c.AddFault(FaultTimeout, "pdm")
	c.AddFault(FaultRetry, "pps")
	got := c.Snapshot()
	want := []FaultCount{
		{Kind: FaultShed, System: "pdm", N: 1000},
		{Kind: FaultRetry, System: "pps", N: 2},
		{Kind: FaultTimeout, System: "pdm", N: 1},
	}
	if !reflect.DeepEqual(got.Faults, want) {
		t.Fatalf("faults = %+v, want %+v", got.Faults, want)
	}
	if got.Sheds != 1000 || got.Retries != 2 || got.Timeouts != 1 || got.BreakerTrips != 0 {
		t.Fatalf("sums retries/trips/sheds/timeouts = %d/%d/%d/%d", got.Retries, got.BreakerTrips, got.Sheds, got.Timeouts)
	}
	// The snapshot is a copy: later faults do not reach it.
	c.AddFault(FaultShed, "pdm")
	if got.Faults[0].N != 1000 {
		t.Fatal("a snapshot must not alias the live counters")
	}
	var none *StmtCounters
	none.AddFault(FaultShed, "pdm")
	none.AddActivity()
	if s := none.Snapshot(); s.Faults != nil || s.Activities != 0 {
		t.Fatalf("a nil counter set reads zeros, got %+v", s)
	}
}

// TestObserveStatementFoldsCounters: the per-system fault series and the
// activity counter advance by the statement's counts; a system the
// statement never met gets no series.
func TestObserveStatementFoldsCounters(t *testing.T) {
	m := NewServerMetrics(NewRegistry())
	st := Statement{Arch: "wfms", Counters: CounterSnapshot{Activities: 5, Faults: []FaultCount{
		{Kind: FaultRetry, System: "pps", N: 3},
		{Kind: FaultBreakerTrip, System: "pdm", N: 1},
		{Kind: FaultShed, System: "pdm", N: 2},
		{Kind: FaultTimeout, System: "fn:GetQuality", N: 1},
	}}}
	m.ObserveStatement(&st)
	st.Err = "failed" // an error statement still folds its counts
	m.ObserveStatement(&st)
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"activities", m.WfMSActivities.Value(), 10},
		{"retries{pps}", m.Retries.With("pps").Value(), 6},
		{"trips{pdm}", m.BreakerTrips.With("pdm").Value(), 2},
		{"sheds{pdm}", m.BreakerSheds.With("pdm").Value(), 4},
		{"timeouts{fn:GetQuality}", m.Timeouts.With("fn:GetQuality").Value(), 2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	var sb strings.Builder
	if err := m.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); strings.Contains(out, `fedwf_appsys_retries_total{system="pdm"}`) {
		t.Errorf("a system without retries must have no retry series:\n%s", out)
	}
}

// TestFinishedInstancesRideTheSnapshot: instances finished on concurrent
// branches all reach the snapshot, by reference, and a snapshot taken
// earlier keeps its own length.
func TestFinishedInstancesRideTheSnapshot(t *testing.T) {
	_, c := WithStmtCounters(context.Background())
	first := &WorkflowInstance{Seq: 1}
	c.FinishInstance(first)
	early := c.Snapshot()
	recs := make([]WorkflowInstance, 8)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i].Seq = uint64(i + 2)
			c.FinishInstance(&recs[i])
		}()
	}
	wg.Wait()
	if len(early.Trail) != 1 || early.Trail[0] != first {
		t.Fatalf("early trail = %v, want the first instance", early.Trail)
	}
	got := c.Snapshot().Trail
	if len(got) != 9 || got[0] != first {
		t.Fatalf("trail = %v, want 9 instances led by the first", got)
	}
	seen := map[uint64]bool{}
	for _, in := range got {
		seen[in.Seq] = true
	}
	if len(seen) != 9 {
		t.Fatalf("trail instances %v are not distinct", seen)
	}
	var none *StmtCounters
	none.FinishInstance(first) // untracked execution drops the record
	if none.Snapshot().Trail != nil {
		t.Fatal("nil counters produced a trail")
	}
}

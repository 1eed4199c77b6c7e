package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
)

func TestEvictionOldestFirstNoGaps(t *testing.T) {
	j := New(Options{Capacity: 32})
	if got := j.Capacity(); got != 32 {
		t.Fatalf("capacity = %d, want 32", got)
	}
	for i := 0; i < 100; i++ {
		j.Append(Event{Kind: KindStatement, Row: -1})
	}
	if got := j.Dropped(); got != 68 {
		t.Fatalf("dropped = %d, want 68", got)
	}
	evts := j.Snapshot()
	if len(evts) != 32 {
		t.Fatalf("live events = %d, want 32", len(evts))
	}
	// Oldest-first eviction: the survivors are exactly the newest 32
	// sequence numbers, contiguous and ascending — no gaps, no stragglers.
	for i, e := range evts {
		want := uint64(69 + i)
		if e.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if j.Seq() != 100 {
		t.Fatalf("seq = %d, want 100", j.Seq())
	}
}

func TestCapacityRoundsUpToShardMultiple(t *testing.T) {
	j := New(Options{Capacity: 30})
	if got := j.Capacity(); got != 32 {
		t.Fatalf("capacity = %d, want 32 (rounded to shard multiple)", got)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	j := New(Options{})
	if j.Now() != 0 {
		t.Fatalf("fresh clock = %v, want 0", j.Now())
	}
	j.Advance(250 * time.Millisecond)
	j.Advance(750 * time.Millisecond)
	if got := j.Now(); got != time.Second {
		t.Fatalf("clock = %v, want 1s", got)
	}
	j.Advance(-time.Hour) // negative advances are ignored
	if got := j.Now(); got != time.Second {
		t.Fatalf("clock after negative advance = %v, want 1s", got)
	}
}

func TestSinkJSONLAndFlush(t *testing.T) {
	var buf bytes.Buffer
	j := New(Options{Capacity: 8})
	j.SetSink(&buf)
	for i := 0; i < 20; i++ {
		j.Append(Event{Kind: KindStatement, Fingerprint: "abc", Row: -1, Rows: i})
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// The sink sees every append, including the ones the ring later
	// evicted — that is the point of the JSONL file.
	if len(lines) != 20 {
		t.Fatalf("sink lines = %d, want 20", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if e.Seq != 1 || e.Kind != KindStatement || e.Fingerprint != "abc" {
		t.Fatalf("sink line decoded wrong: %+v", e)
	}
}

func TestSLOBurnMath(t *testing.T) {
	j := New(Options{Capacity: 1024})
	j.SetObjectives(Objectives{Availability: 0.95, Latency: 100 * time.Millisecond})

	// 8 healthy statements, 1 slow, 1 failed, spread over 40 virtual
	// seconds so they all sit inside the 1m window.
	for i := 0; i < 10; i++ {
		e := Event{Kind: KindStatement, Row: -1, StartVT: j.Now(), DurVT: 10 * time.Millisecond}
		switch i {
		case 3:
			e.DurVT = 200 * time.Millisecond // over the latency objective
		case 7:
			e.Err = "resil: statement deadline exceeded"
		}
		j.Append(e)
		j.Advance(4 * time.Second)
	}

	b := j.SLOBurn(time.Minute)
	if b.Statements != 10 || b.Errors != 1 || b.Slow != 1 {
		t.Fatalf("window counts = %+v", b)
	}
	// budget = 1 - 0.95 = 0.05; errFraction = 0.1 → burn 2.0.
	if b.AvailBurn < 1.99 || b.AvailBurn > 2.01 {
		t.Fatalf("availability burn = %v, want 2.0", b.AvailBurn)
	}
	if b.LatencyBurn < 1.99 || b.LatencyBurn > 2.01 {
		t.Fatalf("latency burn = %v, want 2.0", b.LatencyBurn)
	}

	// Advance the clock far enough that the 1m window empties; burn
	// must read 0, not NaN.
	j.Advance(2 * time.Minute)
	b = j.SLOBurn(time.Minute)
	if b.Statements != 0 || b.AvailBurn != 0 || b.LatencyBurn != 0 {
		t.Fatalf("empty window burn = %+v, want zeros", b)
	}

	rep := j.SLOReport()
	if len(rep.Windows) != 3 {
		t.Fatalf("report windows = %d, want 3", len(rep.Windows))
	}
	if rep.Windows[0].Window != "1m" || rep.Windows[1].Window != "5m" || rep.Windows[2].Window != "1h" {
		t.Fatalf("window labels = %v %v %v", rep.Windows[0].Window, rep.Windows[1].Window, rep.Windows[2].Window)
	}
}

func TestDefaultObjectivesWhenUnset(t *testing.T) {
	j := New(Options{})
	if got, want := j.Objectives(), DefaultObjectives(); got != want {
		t.Fatalf("objectives = %+v, want defaults %+v", got, want)
	}
}

func TestCallEventsFromSpanTree(t *testing.T) {
	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "fdbs.exec")
	run := obs.StartSpan(task, "engine.run")
	task.Spend(time.Millisecond)
	wf := obs.StartSpan(task, "udtf.wf", obs.Attr{Key: "fn", Value: "GetSuppQual"})
	task.Spend(5 * time.Millisecond)
	wf.End(task)
	task.Spend(time.Millisecond)
	as := obs.StartSpan(task, "udtf.appsys", obs.Attr{Key: "fn", Value: "GibLiefQualifikation"})
	task.Spend(3 * time.Millisecond)
	as.End(task)
	obs.StartSpan(task, "udtf.nofn").End(task) // no fn attribute: not a call
	run.End(task)
	calls := obs.FedCalls(tr.Finish(), nil)

	j := New(Options{Capacity: 64})
	j.Advance(10 * time.Millisecond)
	j.AppendStatement(&obs.Statement{TraceID: "t1", Arch: "wfms", Rows: 9, Paper: 12 * time.Millisecond,
		Counters: obs.CounterSnapshot{RPCs: 2, Instances: 1}, Calls: calls}, "fp")
	got := j.Snapshot()
	if len(got) != 3 {
		t.Fatalf("events = %d, want the statement and 2 calls", len(got))
	}
	if s := got[0]; s.Kind != KindStatement || s.Fingerprint != "fp" || s.Rows != 9 || s.RPCs != 2 || s.Instances != 1 ||
		s.StartVT != 10*time.Millisecond || s.DurVT != 12*time.Millisecond {
		t.Fatalf("statement = %+v", s)
	}
	got = got[1:]
	// Call events carry the statement's scope and nothing of its counts.
	if got[0].Func != "GetSuppQual" || got[0].Kind != KindCall || got[0].Row != -1 || got[0].Rows != 0 ||
		got[0].RPCs != 0 || got[0].Instances != 0 || got[0].Fingerprint != "fp" || got[0].Arch != "wfms" {
		t.Fatalf("first call = %+v", got[0])
	}
	if got[0].StartVT != 11*time.Millisecond || got[0].DurVT != 5*time.Millisecond {
		t.Fatalf("first call timing = %v/%v", got[0].StartVT, got[0].DurVT)
	}
	if got[1].Func != "GibLiefQualifikation" || got[1].TraceID != "t1" || got[1].StartVT != 17*time.Millisecond {
		t.Fatalf("second call = %+v", got[1])
	}
}

// TestFaultEventsCarryTraceID: a fault event joins to its statement on
// the trace id, as the statement's call and workflow events do.
func TestFaultEventsCarryTraceID(t *testing.T) {
	j := New(Options{Capacity: 32})
	for _, id := range []string{"t1", "t2"} {
		j.AppendStatement(&obs.Statement{TraceID: id, Counters: obs.CounterSnapshot{
			Faults: []obs.FaultCount{
				{Kind: obs.FaultRetry, System: "pps", N: 1},
				{Kind: obs.FaultTimeout, System: "pdm", N: 1},
			},
			Trail: []*obs.WorkflowInstance{{Seq: 1, Process: "GetSuppQual",
				Audit: []obs.AuditEvent{{Node: "GQ", Event: "started", Row: -1}}}},
		}}, "fp")
	}
	var stmt string // the trace id of the statement the events follow
	var joined int
	for _, e := range j.Snapshot() {
		switch e.Kind {
		case KindStatement:
			stmt = e.TraceID
		case KindRetry, KindTimeout, KindActivity, KindInstance:
			joined++
			if e.TraceID != stmt {
				t.Errorf("%s event %d: trace id %q, want its statement's %q", e.Kind, e.Seq, e.TraceID, stmt)
			}
		}
	}
	if joined != 8 {
		t.Fatalf("fault and workflow events = %d, want 8", joined)
	}
}

// TestFaultEventsFollowCalls: a statement's faults append one event per
// occurrence after its call events, each naming the system in Func, with
// the kind's detail and class, no row, and the statement's start.
func TestFaultEventsFollowCalls(t *testing.T) {
	j := New(Options{Capacity: 64})
	j.Advance(7 * time.Millisecond)
	j.AppendStatement(&obs.Statement{TraceID: "t1", Arch: "udtf", Paper: 30 * time.Millisecond,
		Calls: []obs.FedCall{{Fn: "GetSuppQual", Start: 2 * time.Millisecond, Elapsed: 20 * time.Millisecond}},
		Counters: obs.CounterSnapshot{Faults: []obs.FaultCount{
			{Kind: obs.FaultRetry, System: "pps", N: 2},
			{Kind: obs.FaultBreakerTrip, System: "pps", N: 1},
			{Kind: obs.FaultShed, System: "pdm", N: 1},
			{Kind: obs.FaultTimeout, System: "fn:GetQuality", N: 1},
		}}}, "fp")
	got := j.Snapshot()
	const start = 7 * time.Millisecond
	want := []Event{
		{Kind: KindRetry, Func: "pps"},
		{Kind: KindRetry, Func: "pps"},
		{Kind: KindBreaker, Func: "pps", Detail: "open", Class: "circuit_open"},
		{Kind: KindShed, Func: "pdm", Class: "circuit_open"},
		{Kind: KindTimeout, Func: "fn:GetQuality", Class: "timeout"},
	}
	if len(got) != 2+len(want) || got[0].Kind != KindStatement || got[1].Kind != KindCall {
		t.Fatalf("events = %+v, want the statement, its call, then %d faults", got, len(want))
	}
	for i, w := range want {
		w.Seq, w.TraceID, w.Row, w.StartVT = uint64(i+3), "t1", -1, start
		if g := got[i+2]; g != w {
			t.Errorf("fault event %d = %+v, want %+v", i, g, w)
		}
	}
	if j.Now() != start+30*time.Millisecond {
		t.Errorf("clock = %v, want only the statement's paper time added", j.Now())
	}
}

// TestWorkflowEventsFollowFaults: a statement's finished workflow
// instances append, after its call and fault events and in finish order,
// one wf_activity event per audit-trail entry and then the instance's
// wf_instance event, each started at the statement's start plus its
// offset within the statement.
func TestWorkflowEventsFollowFaults(t *testing.T) {
	j := New(Options{Capacity: 64})
	j.Advance(7 * time.Millisecond)
	j.AppendStatement(&obs.Statement{TraceID: "t1", Arch: "wfms", Paper: 90 * time.Millisecond,
		Calls: []obs.FedCall{{Fn: "GetSuppQual", Start: time.Millisecond, Elapsed: 80 * time.Millisecond}},
		Counters: obs.CounterSnapshot{
			Faults: []obs.FaultCount{{Kind: obs.FaultRetry, System: "pps", N: 1}},
			Trail: []*obs.WorkflowInstance{
				{Seq: 12, Process: "GetSuppQual", Batch: 1, Activities: 1, Rows: 1,
					Start: 2 * time.Millisecond, Dur: 40 * time.Millisecond,
					Audit: []obs.AuditEvent{
						{At: 3 * time.Millisecond, Node: "GSN", Event: "started", Row: -1},
						{At: 9 * time.Millisecond, Node: "GSN", Event: "completed", Rows: 1, Row: -1},
					}},
				{Seq: 13, Process: "GetSuppQual", Batch: 2, Err: "wfms: activity GQ: boom",
					Start: 50 * time.Millisecond, Dur: 30 * time.Millisecond,
					Audit: []obs.AuditEvent{{At: 55 * time.Millisecond, Node: "GQ", Event: "skipped", Row: 1}}},
			},
		}}, "fp")
	const start = 7 * time.Millisecond
	want := []Event{
		{Kind: KindActivity, Instance: "wf-000012", Node: "GSN", Detail: "started", Row: -1, StartVT: start + 3*time.Millisecond},
		{Kind: KindActivity, Instance: "wf-000012", Node: "GSN", Detail: "completed", Row: -1, Rows: 1, StartVT: start + 9*time.Millisecond},
		{Kind: KindInstance, Instance: "wf-000012", Func: "GetSuppQual", Batch: 1, Activities: 1, Row: -1, Rows: 1,
			StartVT: start + 2*time.Millisecond, DurVT: 40 * time.Millisecond},
		{Kind: KindActivity, Instance: "wf-000013", Node: "GQ", Detail: "skipped", Row: 1, StartVT: start + 55*time.Millisecond},
		{Kind: KindInstance, Instance: "wf-000013", Func: "GetSuppQual", Batch: 2, Row: -1, Err: "wfms: activity GQ: boom",
			StartVT: start + 50*time.Millisecond, DurVT: 30 * time.Millisecond},
	}
	got := j.Snapshot()
	if len(got) != 3+len(want) || got[0].Kind != KindStatement || got[1].Kind != KindCall || got[2].Kind != KindRetry {
		t.Fatalf("events = %+v, want the statement, its call, its retry, then %d workflow events", got, len(want))
	}
	for i, w := range want {
		w.Seq, w.TraceID = uint64(i+4), "t1"
		if g := got[i+3]; g != w {
			t.Errorf("workflow event %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestJournalRelations: fed_audit_events carries every field of an event
// but its JSON form, fed_wf_instances the instance events, and fed_slo one
// row per window of SLOReport with the objectives and the virtual instant.
func TestJournalRelations(t *testing.T) {
	j := New(Options{Capacity: 64})
	j.SetObjectives(Objectives{Availability: 0.99, Latency: 50 * time.Millisecond})
	for i := 0; i < 5; i++ {
		j.Append(Event{Kind: KindStatement, TraceID: "t", Fingerprint: "f", Arch: "wfms", Row: -1, Rows: 2,
			RPCs: 3, Instances: 1, StartVT: j.Now(), DurVT: time.Millisecond})
		j.Advance(time.Second)
	}
	j.Append(Event{Kind: KindInstance, Instance: "wf-000001", Func: "wfSuppQual", Batch: 4, Activities: 2, Row: -1})

	events, err := j.EventsTable()
	if err != nil {
		t.Fatal(err)
	}
	if events.Len() != 6 {
		t.Fatalf("fed_audit_events has %d rows, want 6", events.Len())
	}
	want := []string{"1", "'statement'", "'t'", "'f'", "'wfms'", "''", "''", "''", "''", "''", "-1", "2", "0", "0", "3", "1", "0", "1", "''"}
	for i, v := range events.Rows[0] {
		if v.String() != want[i] {
			t.Errorf("fed_audit_events.%s = %s, want %s", events.Schema[i].Name, v, want[i])
		}
	}
	if r := events.Rows[5]; r[12].Int() != 4 || r[13].Int() != 2 {
		t.Errorf("instance event batch/activities = %s/%s, want 4/2", r[12], r[13])
	}

	inst, err := j.InstancesTable()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len() != 1 || inst.Rows[0][0].Str() != "wf-000001" {
		t.Fatalf("fed_wf_instances:\n%s", inst)
	}

	slo, err := j.SLOTable()
	if err != nil {
		t.Fatal(err)
	}
	rep := j.SLOReport()
	if slo.Len() != len(rep.Windows) {
		t.Fatalf("fed_slo has %d rows, want %d", slo.Len(), len(rep.Windows))
	}
	for i, w := range rep.Windows {
		r := slo.Rows[i]
		if r[0].Str() != w.Window || r[1].Int() != int64(w.Statements) || r[4].Float() != w.AvailBurn ||
			r[8].Float() != 0.99 || r[9].Float() != 50 || r[10].Float() != 5000 {
			t.Errorf("fed_slo row %d = %v, want %+v at 0.99, 50 ms, now 5000 ms", i, r, w)
		}
	}
}

func TestConcurrentAppendSnapshotAdvance(t *testing.T) {
	concurrentAppendSnapshotAdvance(t, KindStatement)
}

// TestConcurrentAppendSnapshotAdvanceCalls is the same race with events
// that are not statements, then many rounds of it on the smallest ring: an
// appender delayed past a whole ring of later appends finds its slot taken
// by a newer event, which must survive, and the journal must count the
// delayed event dropped.
func TestConcurrentAppendSnapshotAdvanceCalls(t *testing.T) {
	concurrentAppendSnapshotAdvance(t, KindCall)
	for round := 0; round < 2000; round++ {
		j := New(Options{Capacity: numShards})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					j.Append(Event{Kind: KindCall, Row: -1})
				}
			}()
		}
		wg.Wait()
		checkSuffix(t, j, 8*64, fmt.Sprintf("round %d", round))
	}
}

// concurrentAppendSnapshotAdvance appends events of one kind from eight
// goroutines while four others snapshot, read a burn rate and advance the
// clock; afterwards every sequence number is live or dropped and the live
// events are the newest ones, gap-free.
func concurrentAppendSnapshotAdvance(t *testing.T, kind Kind) {
	j := New(Options{Capacity: 128})
	reg := obs.NewRegistry()
	j.AttachMetrics(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Append(Event{Kind: kind, Row: -1,
					Fingerprint: fmt.Sprintf("fp%d", g), StartVT: j.Now()})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = j.Snapshot()
				_ = j.SLOBurn(time.Minute)
				j.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	checkSuffix(t, j, 1600, "post-race")
}

// checkSuffix checks a quiet journal that took n appends: every sequence
// number is live or dropped, and the live events are the newest
// min(n, Capacity()), gap-free.
func checkSuffix(t *testing.T, j *Journal, n int, where string) {
	t.Helper()
	if got := j.Seq(); got != uint64(n) {
		t.Fatalf("%s: seq = %d, want %d", where, got, n)
	}
	if got := int64(j.Len()) + j.Dropped(); got != int64(n) {
		t.Fatalf("%s: live+dropped = %d, want %d", where, got, n)
	}
	evts := j.Snapshot()
	if len(evts) != min(n, j.Capacity()) || evts[len(evts)-1].Seq != uint64(n) {
		t.Fatalf("%s: %d live events ending at seq %d, want the newest %d", where, len(evts), evts[len(evts)-1].Seq, min(n, j.Capacity()))
	}
	for i := 1; i < len(evts); i++ {
		if evts[i].Seq != evts[i-1].Seq+1 {
			t.Fatalf("%s: gap between seq %d and %d", where, evts[i-1].Seq, evts[i].Seq)
		}
	}
}

package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/obs"
)

// modelStmt is one appended statement as the model keeps it: the sequence
// number and start the journal gave it, and what the test appended.
type modelStmt struct {
	seq   uint64
	start time.Duration
	dur   time.Duration
	err   bool
}

// modelBurn is the oracle for SLOBurn, built from the definition rather
// than from the ring: a statement counts while its event is still in the
// ring (seq > Seq() - Capacity()) and it started inside the window
// (start > now - w).
func modelBurn(j *Journal, stmts []modelStmt, w time.Duration) WindowBurn {
	obj, now, last := j.Objectives(), j.Now(), j.Seq()
	b := WindowBurn{Window: windowLabel(w)}
	for _, s := range stmts {
		if s.seq+uint64(j.Capacity()) <= last || s.start <= now-w {
			continue
		}
		b.Statements++
		if s.err {
			b.Errors++
		}
		if obj.Latency > 0 && s.dur > obj.Latency {
			b.Slow++
		}
	}
	if b.Statements > 0 {
		b.ErrFraction = float64(b.Errors) / float64(b.Statements)
		b.SlowFraction = float64(b.Slow) / float64(b.Statements)
		if budget := 1 - obj.Availability; budget > 0 {
			b.AvailBurn, b.LatencyBurn = b.ErrFraction/budget, b.SlowFraction/budget
		}
	}
	return b
}

// sloGauges reads the three fedwf_slo_* gauges of one window label.
func sloGauges(reg *obs.Registry, label string) (avail, lat, stmts float64) {
	avail = reg.GaugeVec("fedwf_slo_availability_burn_total", "", "window").With(label).Value()
	lat = reg.GaugeVec("fedwf_slo_latency_burn_total", "", "window").With(label).Value()
	stmts = reg.GaugeVec("fedwf_slo_window_statements_total", "", "window").With(label).Value()
	return avail, lat, stmts
}

// checkBurnMatchesModel compares the gauges and the report of every window
// of Windows, and SLOBurn of two windows without gauges, against the
// model.
func checkBurnMatchesModel(t *testing.T, j *Journal, reg *obs.Registry, stmts []modelStmt, where string) {
	t.Helper()
	rep := j.SLOReport()
	for k, w := range Windows {
		want := modelBurn(j, stmts, w)
		avail, lat, n := sloGauges(reg, want.Window)
		if avail != want.AvailBurn || lat != want.LatencyBurn || n != float64(want.Statements) {
			t.Fatalf("%s: %s gauges = %v/%v/%v, model = %+v", where, want.Window, avail, lat, n, want)
		}
		if rep.Windows[k] != want {
			t.Fatalf("%s: report %+v, model %+v", where, rep.Windows[k], want)
		}
	}
	for _, w := range []time.Duration{90 * time.Second, 2 * time.Hour} {
		if got, want := j.SLOBurn(w), modelBurn(j, stmts, w); got != want {
			t.Fatalf("%s: window %v burn = %+v, model = %+v", where, w, got, want)
		}
	}
}

// TestSLOBurnMatchesModel drives random mixes of statements (some failing,
// some over the latency objective, some stamped by hand through Append,
// now and then with a start behind earlier statements'), other events,
// idle time (now and then longer than the longest window) and objective
// changes through small rings, so statements leave the windows by time
// and by eviction constantly, and compares the burn rates with the model
// after every step.
func TestSLOBurnMatchesModel(t *testing.T) {
	availabilities := []float64{0.9, 0.95, 0.99, 0.995, 1}
	latencies := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := New(Options{Capacity: 8 + rng.Intn(121)})
		reg := obs.NewRegistry()
		j.AttachMetrics(reg)
		var stmts []modelStmt
		// Durations are whole 10 ms and idle time and start offsets whole
		// seconds, so starts land exactly on window boundaries too.
		statement := func() modelStmt {
			s := modelStmt{dur: time.Duration(rng.Intn(41)) * 10 * time.Millisecond, err: rng.Intn(6) == 0}
			if rng.Intn(20) == 0 {
				s.dur = time.Duration(rng.Intn(181)) * time.Second
			}
			return s
		}
		errText := func(s modelStmt) string {
			if s.err {
				return "resil: statement deadline exceeded"
			}
			return ""
		}
		for step := 0; step < 2000; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				op = "AppendStatement"
				s := statement()
				s.seq, s.start = j.Seq()+1, j.Now()
				j.AppendStatement(&obs.Statement{Err: errText(s), Paper: s.dur}, "")
				stmts = append(stmts, s)
			case r < 52:
				op = "Append(statement)"
				s := statement()
				s.start = j.Now()
				if rng.Intn(3) == 0 {
					// Out of order: it started before statements already
					// appended, possibly outside a window at once.
					op = "Append(statement, earlier start)"
					s.start -= time.Duration(rng.Intn(400)) * time.Second
				}
				s.seq = j.Append(Event{Kind: KindStatement, Row: -1, Err: errText(s), StartVT: s.start, DurVT: s.dur})
				stmts = append(stmts, s)
			case r < 85:
				op = "Append"
				j.Append(Event{Kind: kinds[1+rng.Intn(len(kinds)-1)], Row: -1, StartVT: j.Now()})
			case r < 97:
				op = "Advance"
				j.Advance(time.Duration(rng.Intn(61)) * time.Second)
			case r < 98:
				op = "Advance(long)"
				j.Advance(time.Duration(rng.Intn(121)) * time.Minute)
			default:
				op = "SetObjectives"
				j.SetObjectives(Objectives{
					Availability: availabilities[rng.Intn(len(availabilities))],
					Latency:      latencies[rng.Intn(len(latencies))],
				})
			}
			checkBurnMatchesModel(t, j, reg, stmts, fmt.Sprintf("seed %d capacity %d step %d (%s)", seed, j.Capacity(), step, op))
			// An evicted statement never counts again; forget it so the
			// model stays as small as the ring.
			stmts = slices.DeleteFunc(stmts, func(s modelStmt) bool { return s.seq+uint64(j.Capacity()) <= j.Seq() })
		}
	}
}

// TestSLOBurnMatchesModelConcurrent appends statements and other events
// from eight goroutines while others scrape /metrics and read the report
// and snapshots; once they are quiet, gauges, report and burn rates must
// agree with the model. Each statement carries its own trace id, which
// finds the sequence number and start the journal gave it in the sink.
func TestSLOBurnMatchesModelConcurrent(t *testing.T) {
	j := New(Options{Capacity: 64})
	reg := obs.NewRegistry()
	j.AttachMetrics(reg)
	j.SetObjectives(Objectives{Availability: 0.99, Latency: 100 * time.Millisecond})
	var sink bytes.Buffer
	j.SetSink(&sink)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				_ = j.SLOReport()
				_ = j.Snapshot()
			}
		}()
	}
	appended := make([]map[string]modelStmt, 8)
	var writers sync.WaitGroup
	for g := range appended {
		appended[g] = make(map[string]modelStmt)
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				s := modelStmt{dur: time.Duration(rng.Int63n(int64(200 * time.Millisecond))), err: rng.Intn(8) == 0}
				st := obs.Statement{TraceID: id, Paper: s.dur}
				if s.err {
					st.Err = "boom"
				}
				st.Calls = make([]obs.FedCall, rng.Intn(3))
				j.AppendStatement(&st, "")
				appended[g][id] = s
				if rng.Intn(40) == 0 {
					j.Advance(time.Duration(rng.Int63n(int64(20 * time.Second))))
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var stmts []modelStmt
	lines := bufio.NewScanner(strings.NewReader(sink.String()))
	for lines.Scan() {
		var e Event
		if err := json.Unmarshal(lines.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != KindStatement {
			continue
		}
		var g, i int
		if _, err := fmt.Sscanf(e.TraceID, "g%d-%d", &g, &i); err != nil {
			t.Fatalf("statement event with trace id %q", e.TraceID)
		}
		s := appended[g][e.TraceID]
		s.seq, s.start = e.Seq, e.StartVT
		stmts = append(stmts, s)
	}
	if len(stmts) != 8*500 {
		t.Fatalf("sink holds %d statement events, want %d", len(stmts), 8*500)
	}
	checkBurnMatchesModel(t, j, reg, stmts, "at quiescence")
}

// TestMetricsMatchJournal: after N appends into capacity C, the live gauge
// reads min(N, C), the per-kind counters sum to N, the window gauges equal
// SLOBurn, and the sink received every event.
func TestMetricsMatchJournal(t *testing.T) {
	for _, tc := range []struct{ n, capacity int }{{5, 64}, {64, 64}, {300, 64}, {1000, 128}} {
		j := New(Options{Capacity: tc.capacity})
		reg := obs.NewRegistry()
		j.AttachMetrics(reg)
		var sink bytes.Buffer
		j.SetSink(&sink)
		for i := 0; i < tc.n; i++ {
			switch i % 4 {
			case 0:
				j.AppendStatement(&obs.Statement{Paper: time.Duration(i) * time.Second}, "")
			case 1:
				j.Append(Event{Kind: KindStatement, Row: -1, StartVT: j.Now(), Err: "boom"})
			default:
				j.Append(Event{Kind: kinds[1+i%(len(kinds)-1)], Row: -1, StartVT: j.Now()})
			}
		}
		where := fmt.Sprintf("N=%d C=%d", tc.n, tc.capacity)
		if got, want := reg.Gauge("fedwf_audit_ring_live_total", "").Value(), float64(min(tc.n, tc.capacity)); got != want {
			t.Fatalf("%s: live gauge = %v, want %v", where, got, want)
		}
		events := reg.CounterVec("fedwf_audit_events_total", "", "kind")
		sum := 0.0
		for _, k := range Kinds() {
			sum += events.With(string(k)).Value()
		}
		if sum != float64(tc.n) {
			t.Fatalf("%s: per-kind event counters sum to %v", where, sum)
		}
		for _, w := range Windows {
			b := j.SLOBurn(w)
			if _, _, stmts := sloGauges(reg, b.Window); stmts != float64(b.Statements) {
				t.Fatalf("%s: %s statements gauge = %v, SLOBurn = %d", where, b.Window, stmts, b.Statements)
			}
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(sink.String(), "\n"); got != tc.n {
			t.Fatalf("%s: sink lines = %d", where, got)
		}
	}
}

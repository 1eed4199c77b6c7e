package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/obs"
)

// referenceBurn is the scan the SLO fold replaced, kept as its oracle: it
// walks every live event under its shard lock and counts the statements
// that started after now - w.
func referenceBurn(j *Journal, w time.Duration) WindowBurn {
	obj := j.Objectives()
	now := j.Now()
	cutoff := now - w

	b := WindowBurn{Window: windowLabel(w)}
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.Lock()
		for k := 0; k < sh.n; k++ {
			e := &sh.buf[k]
			if e.Kind != KindStatement || e.StartVT <= cutoff {
				continue
			}
			b.Statements++
			if e.Err != "" {
				b.Errors++
			}
			if obj.Latency > 0 && e.DurVT > obj.Latency {
				b.Slow++
			}
		}
		sh.mu.Unlock()
	}
	if b.Statements == 0 {
		return b
	}
	b.ErrFraction = float64(b.Errors) / float64(b.Statements)
	b.SlowFraction = float64(b.Slow) / float64(b.Statements)
	budget := 1 - obj.Availability
	if budget > 0 {
		b.AvailBurn = b.ErrFraction / budget
		b.LatencyBurn = b.SlowFraction / budget
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

// checkFoldMatchesScan compares every folded window, two windows that are
// not folded, and the published gauges against the reference scan.
func checkFoldMatchesScan(t *testing.T, j *Journal, reg *obs.Registry, where string) {
	t.Helper()
	for _, w := range Windows {
		want := referenceBurn(j, w)
		avail, lat, stmts := sloGauges(reg, want.Window)
		if avail != want.AvailBurn || lat != want.LatencyBurn || stmts != float64(want.Statements) {
			t.Fatalf("%s: %s gauges = %v/%v/%v, scan = %+v", where, want.Window, avail, lat, stmts, want)
		}
	}
	for _, w := range append(append([]time.Duration(nil), Windows...), 90*time.Second, 2*time.Hour) {
		if got, want := j.SLOBurn(w), referenceBurn(j, w); got != want {
			t.Fatalf("%s: window %v fold = %+v, scan = %+v", where, w, got, want)
		}
	}
}

// TestSLOFoldMatchesScan drives random mixes of statements (some failing,
// some over the latency objective, some stamped by hand through Append),
// other events, idle time (now and then longer than the longest window)
// and objective changes through small rings, so statements leave the
// windows by time and by eviction constantly, and compares the fold with
// the scan after every step.
func TestSLOFoldMatchesScan(t *testing.T) {
	availabilities := []float64{0.9, 0.95, 0.99, 0.995, 1}
	latencies := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := New(Options{Capacity: 8 + rng.Intn(121)})
		reg := obs.NewRegistry()
		j.AttachMetrics(reg)
		// Durations are whole 10 ms and idle time whole seconds, so starts
		// land exactly on window boundaries too.
		statement := func() Event {
			e := Event{Row: -1, DurVT: time.Duration(rng.Intn(41)) * 10 * time.Millisecond}
			if rng.Intn(20) == 0 {
				e.DurVT = time.Duration(rng.Intn(181)) * time.Second
			}
			if rng.Intn(6) == 0 {
				e.Err = "resil: statement deadline exceeded"
			}
			return e
		}
		for step := 0; step < 2000; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				op = "AppendStatement"
				j.AppendStatement(statement())
			case r < 52:
				op = "Append(statement)"
				e := statement()
				e.Kind, e.StartVT = KindStatement, j.Now()
				j.Append(e)
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
			checkFoldMatchesScan(t, j, reg, fmt.Sprintf("seed %d capacity %d step %d (%s)", seed, j.Capacity(), step, op))
		}
	}
}

// TestSLOFoldMatchesScanConcurrent appends statements and other events
// from eight goroutines while others read the report and snapshots; once
// they are quiet, fold, gauges and scan must agree.
func TestSLOFoldMatchesScanConcurrent(t *testing.T) {
	j := New(Options{Capacity: 64})
	reg := obs.NewRegistry()
	j.AttachMetrics(reg)
	j.SetObjectives(Objectives{Availability: 0.99, Latency: 100 * time.Millisecond})

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
				_ = j.SLOReport()
				_ = j.Snapshot()
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				e := Event{Row: -1, DurVT: time.Duration(rng.Int63n(int64(200 * time.Millisecond)))}
				if rng.Intn(8) == 0 {
					e.Err = "boom"
				}
				start := j.AppendStatement(e)
				for c := rng.Intn(3); c > 0; c-- {
					j.Append(Event{Kind: KindCall, Row: -1, StartVT: start})
				}
				if rng.Intn(40) == 0 {
					j.Advance(time.Duration(rng.Int63n(int64(20 * time.Second))))
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkFoldMatchesScan(t, j, reg, "at quiescence")
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
				j.AppendStatement(Event{Row: -1, DurVT: time.Duration(i) * time.Second})
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

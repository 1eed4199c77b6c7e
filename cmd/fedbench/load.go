package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fedwf/internal/fdbs"
)

// stmtTimeout bounds one statement's wall time; a statement that hits it
// counts as failed.
const stmtTimeout = 30 * time.Second

// roundResult is what one (workload, round) measured.
type roundResult struct {
	SetupS           float64 `json:"setup_s"` // mean of the round's set-ups, slowest fifth dropped
	WindowS          float64 `json:"window_s"`
	Statements       int     `json:"statements"` // checked correct, completed inside the window
	ThroughputPerS   float64 `json:"throughput_per_s"`
	P50MS            float64 `json:"p50_ms"`
	P95MS            float64 `json:"p95_ms"`
	P95Supported     bool    `json:"p95_supported"`
	P99MS            float64 `json:"p99_ms"`
	P99Supported     bool    `json:"p99_supported"`
	CPUMSPerStmt     float64 `json:"cpu_ms_per_stmt"`
	AllocsPerStmt    float64 `json:"allocs_per_stmt"`
	AllocBytesPerStm float64 `json:"alloc_bytes_per_stmt"`
	LiveHeapMB       float64 `json:"live_heap_mb"`
	PaperMSPerStmt   float64 `json:"paper_ms_per_stmt"`
	Attempted        int     `json:"attempted"` // warm-up and window, every statement sent
	Failed           int     `json:"failed"`    // errors, refusals and wrong results among them
	FirstError       string  `json:"first_error,omitempty"`
}

// env is one fresh server on loopback with its client sessions.
type env struct {
	srv     *fdbs.Server
	addr    string
	clients []*fdbs.Client
}

// setUp is everything setup_s times: the workload's server built from the
// shipped default configuration and served on an ephemeral loopback port,
// the client sessions, the data. edit, when non-nil, adjusts the
// engine-level config (the traced run installs its application-system
// recorder that way).
func setUp(ctx context.Context, w *workload, nClients int, edit func(*fdbs.Config)) (*env, error) {
	sc := fdbs.DefaultServerConfig()
	if w.tune != nil {
		w.tune(&sc)
	}
	cfg, err := sc.BuildConfig()
	if err != nil {
		return nil, err
	}
	if edit != nil {
		edit(&cfg)
	}
	srv, err := fdbs.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	sc.Apply(srv)
	e := &env{srv: srv}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.addr = addr.String()
	for i := 0; i < nClients; i++ {
		c, err := fdbs.DialClient(e.addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	if w.load != nil {
		if err := w.load(ctx, srv, e.clients[0]); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: load: %w", w.name, err)
		}
	}
	return e, nil
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.srv.Close()
}

// Phases of a round, read by the workers before and after each statement.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// tally is one worker's private record of a round.
type tally struct {
	latMS     []float64
	paperMS   float64
	attempted int
	failed    int
	firstErr  error
}

// extraSetups is how many servers a round sets up and discards before the
// one it measures on: set-up takes 1 to 7 milliseconds, so one sample a
// round is mostly scheduling noise. On the small workloads every second
// set-up triggers a garbage collection and takes twice as long, so the
// median of a round's samples falls between two modes and jumps from one
// to the other (13-17 % ten-seed spread); setup_s is instead their mean
// without the slowest fifth, which keeps the collector's share and drops
// the scheduling outliers.
const extraSetups = 20

// timedSetUp is setUp with its wall time.
func timedSetUp(ctx context.Context, w *workload) (*env, float64, error) {
	t0 := time.Now()
	e, err := setUp(ctx, w, sessions, nil)
	return e, time.Since(t0).Seconds(), err
}

// runRound boots a fresh server, warms it, measures one window and tears
// it down. Worker i draws its statements from rand.NewSource(seed*1000+i).
func runRound(ctx context.Context, w *workload, seed int64, warm, window time.Duration) (roundResult, error) {
	var r roundResult
	var setups []float64
	runtime.GC() // the previous round's garbage is not this round's set-up cost
	for i := 0; i < extraSetups; i++ {
		e, s, err := timedSetUp(ctx, w)
		if err != nil {
			return r, err
		}
		e.close()
		setups = append(setups, s)
	}
	e, s, err := timedSetUp(ctx, w)
	if err != nil {
		return r, err
	}
	defer e.close()
	setups = sorted(append(setups, s))
	r.SetupS = mean(setups[:len(setups)-len(setups)/5])

	chk := w.newChecker()
	var phase atomic.Int32
	tallies := make([]*tally, sessions*w.pipeline)
	var wg sync.WaitGroup
	for i := range tallies {
		t := &tally{}
		tallies[i] = t
		client := e.clients[i/w.pipeline]
		next := w.newGen(rand.New(rand.NewSource(seed*1000+int64(i))), i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && phase.Load() != phaseStop {
				st := next()
				lat, paper, err := execChecked(ctx, client, chk, st)
				t.attempted++
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				// A statement counts for the window it ends in: the one
				// straddling the window's start makes up for the one cut
				// off at its end.
				if phase.Load() == phaseMeasure {
					t.latMS = append(t.latMS, lat.Seconds()*1e3)
					t.paperMS += paper
				}
			}
		}()
	}

	sleepCtx(ctx, warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	w0 := time.Now()
	phase.Store(phaseMeasure)
	sleepCtx(ctx, window)
	phase.Store(phaseStop)
	r.WindowS = time.Since(w0).Seconds()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return r, err
	}

	var lat []float64
	for _, t := range tallies {
		lat = append(lat, t.latMS...)
		r.PaperMSPerStmt += t.paperMS
		r.Attempted += t.attempted
		r.Failed += t.failed
		if r.FirstError == "" && t.firstErr != nil {
			r.FirstError = t.firstErr.Error()
		}
	}
	if chk.finish != nil {
		if err := chk.finish(ctx, e.clients[0]); err != nil {
			r.Failed++
			if r.FirstError == "" {
				r.FirstError = err.Error()
			}
		}
	}
	// What the server retains once the garbage of the window is gone:
	// telemetry rings, caches, the tables.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	r.LiveHeapMB = float64(m2.HeapAlloc) / (1 << 20)

	r.Statements = len(lat)
	if r.Statements == 0 {
		return r, fmt.Errorf("%s: no statement completed inside the %.1fs window (first error: %s)", w.name, window.Seconds(), r.FirstError)
	}
	n := float64(r.Statements)
	r.ThroughputPerS = n / r.WindowS
	r.P50MS = median(lat)
	r.P95MS, r.P95Supported = percentile(lat, 0.95)
	r.P99MS, r.P99Supported = percentile(lat, 0.99)
	r.CPUMSPerStmt = (cpu1 - cpu0).Seconds() * 1e3 / n
	r.AllocsPerStmt = float64(m1.Mallocs-m0.Mallocs) / n
	r.AllocBytesPerStm = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	r.PaperMSPerStmt /= n
	return r, nil
}

// execChecked runs one statement through the client and its result through
// the oracle.
func execChecked(ctx context.Context, c *fdbs.Client, chk checker, st stmt) (lat time.Duration, paperMS float64, err error) {
	sctx, cancel := context.WithTimeout(ctx, stmtTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := c.Exec(sctx, st.sql)
	lat = time.Since(t0)
	if err != nil {
		return lat, 0, fmt.Errorf("%s: %w", st.sql, err)
	}
	if err := chk.check(st, res.Table); err != nil {
		return lat, 0, err
	}
	return lat, res.PaperMS(), nil
}

// cpuTime is this process's user plus system CPU time: server, client
// library and harness together, since they share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

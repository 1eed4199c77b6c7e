// E16 — the high-concurrency serving sweep (extension beyond the paper).
//
// The paper's evaluation runs one statement at a time; the serving layer's
// question is what happens when 100, 1 000, and 10 000 sessions arrive at
// once. Answering it with wall-clock load generation would make the repo's
// numbers machine-dependent, so E16 is a deterministic discrete-event
// simulation on the virtual clock: sessions stagger in over a ramp, each
// generates a fixed number of statements, a client-side pipeline window
// models the framed protocol (window 1 is a session that does not
// pipeline — a statement cannot be sent before its predecessor's
// response), and the server side runs the SAME admission decision the live
// server uses (rpc.AdmissionPolicy.Classify), so measured shed behaviour
// is the deployed shed behaviour. Per-statement service time is measured
// from a real architecture stack, not assumed.
package benchharn

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"fedwf/internal/fedfunc"
	"fedwf/internal/resil"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
)

// ServingConfig parameterizes one deterministic serving simulation.
type ServingConfig struct {
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// Requests is the number of statements each session issues.
	Requests int
	// Window is the client pipeline window: how many statements a session
	// may have in flight. 1 models a serialized session (the retired gob
	// transport's only mode), >1 a pipelined one.
	Window int
	// Service is the per-statement service time on the virtual clock.
	Service time.Duration
	// GenGap separates consecutive statement generations within a session.
	GenGap time.Duration
	// Ramp staggers session starts uniformly over this span.
	Ramp time.Duration
	// Policy is the server's admission policy; the simulation calls its
	// Classify exactly as the live server does.
	Policy rpc.AdmissionPolicy
}

// ServingResult is the outcome of one simulation run. Latencies are
// measured from statement generation to completion, so client-side
// head-of-line blocking under a small window is part of the number — as
// it is for a real caller.
type ServingResult struct {
	Cfg       ServingConfig
	Completed int
	Shed      int
	// Errs holds the error of every shed statement (always wrapping
	// resil.ErrAppSysUnavailable; kept so tests can assert it).
	Errs []error
	// P50 and P99 are generation-to-completion latency percentiles over
	// the completed statements.
	P50, P99 time.Duration
	// Makespan is the virtual time from first generation to last event.
	Makespan time.Duration
	// Throughput is completed statements per virtual second.
	Throughput float64
}

// Event kinds of the simulation: a client generating a statement, and the
// server completing one.
const (
	evGen = iota
	evDone
)

// servEvent is one scheduled simulation event; seq breaks time ties
// deterministically in generation order.
type servEvent struct {
	at      time.Duration
	seq     int
	kind    int
	session int
	gen     time.Duration // evDone: the statement's generation time
}

type servHeap []servEvent

func (h servHeap) Len() int { return len(h) }
func (h servHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h servHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *servHeap) Push(x interface{}) { *h = append(*h, x.(servEvent)) }
func (h *servHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// servSession is one simulated client session.
type servSession struct {
	pending  []time.Duration // generated, unsent statements (their gen times)
	inFlight int
}

// queuedReq is one statement waiting in the server's admission queue.
type queuedReq struct {
	session int
	gen     time.Duration
}

// SimulateServing runs one deterministic serving simulation. The model:
// session i starts at Ramp*i/Sessions and generates its j-th statement
// GenGap apart; a statement is sent as soon as the session has a free
// window slot; the server classifies each arrival with Policy.Classify —
// run now (completing Service later), wait in the global FIFO, or shed
// with resil.ErrAppSysUnavailable. Identical inputs give identical
// outputs on every machine.
func SimulateServing(cfg ServingConfig) ServingResult {
	if cfg.Sessions <= 0 || cfg.Requests <= 0 {
		return ServingResult{Cfg: cfg}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	res := ServingResult{Cfg: cfg}
	sessions := make([]servSession, cfg.Sessions)
	var queue []queuedReq
	running := 0
	seq := 0
	events := &servHeap{}
	push := func(at time.Duration, kind, session int, gen time.Duration) {
		seq++
		heap.Push(events, servEvent{at: at, seq: seq, kind: kind, session: session, gen: gen})
	}
	for i := 0; i < cfg.Sessions; i++ {
		start := time.Duration(int64(cfg.Ramp) * int64(i) / int64(cfg.Sessions))
		for j := 0; j < cfg.Requests; j++ {
			push(start+time.Duration(j)*cfg.GenGap, evGen, i, 0)
		}
	}
	var latencies []time.Duration
	// arrive runs the server-side admission decision for one sent
	// statement; trySend drains a session's pending statements into its
	// free window slots. A shed frees the window slot immediately (the
	// client got a fast typed refusal), so the next pending statement may
	// follow — and may shed too, which is exactly the behaviour of a real
	// client hammering a saturated server.
	var trySend func(now time.Duration, s int)
	arrive := func(now time.Duration, s int, gen time.Duration) {
		switch cfg.Policy.Classify(running, len(queue)) {
		case rpc.AdmitRun:
			running++
			push(now+cfg.Service, evDone, s, gen)
		case rpc.AdmitQueue:
			queue = append(queue, queuedReq{session: s, gen: gen})
		case rpc.AdmitShed:
			res.Shed++
			res.Errs = append(res.Errs, fmt.Errorf("serving: statement shed (%d running, %d queued): %w",
				running, len(queue), resil.ErrAppSysUnavailable))
			sessions[s].inFlight--
			trySend(now, s)
		}
	}
	trySend = func(now time.Duration, s int) {
		sess := &sessions[s]
		for sess.inFlight < cfg.Window && len(sess.pending) > 0 {
			gen := sess.pending[0]
			sess.pending = sess.pending[1:]
			sess.inFlight++
			arrive(now, s, gen)
		}
	}
	for events.Len() > 0 {
		ev := heap.Pop(events).(servEvent)
		res.Makespan = ev.at
		switch ev.kind {
		case evGen:
			sessions[ev.session].pending = append(sessions[ev.session].pending, ev.at)
			trySend(ev.at, ev.session)
		case evDone:
			res.Completed++
			latencies = append(latencies, ev.at-ev.gen)
			sessions[ev.session].inFlight--
			trySend(ev.at, ev.session)
			running--
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				running++
				push(ev.at+cfg.Service, evDone, next.session, next.gen)
			}
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		res.P50 = latencies[(len(latencies)-1)*50/100]
		res.P99 = latencies[(len(latencies)-1)*99/100]
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Completed) / (float64(res.Makespan) / float64(time.Second))
	}
	return res
}

// ServingFunction is the statement whose hot cost calibrates the
// simulation's service time.
const ServingFunction = "GetSuppQual"

// ServingPolicy is the admission policy of the E16 sweep: 128 concurrent
// statements, a 512-deep queue behind them, no session cap.
func ServingPolicy() rpc.AdmissionPolicy {
	return rpc.AdmissionPolicy{MaxConcurrent: 128, QueueDepth: 512}
}

// ServingRow is one scale point of the E16 sweep.
type ServingRow struct {
	Sessions int
	ServingResult
}

// ServingReport is the full E16 output: the session-scale sweep under the
// pipelined window, plus a serialized-vs-pipelined pair at a light scale
// that isolates the protocol's head-of-line-blocking cost from admission
// effects.
type ServingReport struct {
	Service    time.Duration // measured hot cost of ServingFunction
	Rows       []ServingRow
	Serialized ServingResult // window 1 at the light scale
	Pipelined  ServingResult // window 4 at the light scale
}

// ServingSweep runs the E16 serving simulation: service time measured hot
// from the WfMS stack, 4 statements per session generated Service/2
// apart, sessions ramping in over one virtual second, and the admission
// policy of ServingPolicy. scales are the session counts to sweep;
// window is the pipeline depth of the sweep (the serialized/pipelined
// comparison pair always runs windows 1 and 4).
func (h *Harness) ServingSweep(ctx context.Context, scales []int, window int) (*ServingReport, error) {
	spec, err := fedfunc.SpecByName(ServingFunction)
	if err != nil {
		return nil, err
	}
	service, err := measureHot(ctx, h.wf, spec, 1)
	if err != nil {
		return nil, err
	}
	base := ServingConfig{
		Requests: 4,
		Service:  service,
		GenGap:   service / 2,
		Ramp:     1000 * simlat.PaperMS, // one virtual second
		Policy:   ServingPolicy(),
	}
	rep := &ServingReport{Service: service}
	for _, n := range scales {
		cfg := base
		cfg.Sessions = n
		cfg.Window = window
		rep.Rows = append(rep.Rows, ServingRow{Sessions: n, ServingResult: SimulateServing(cfg)})
	}
	// The comparison pair: light enough that both windows fit the server's
	// concurrency, so the difference is purely the client-side pipeline.
	light := base
	light.Sessions = 64
	light.Window = 1
	rep.Serialized = SimulateServing(light)
	light.Window = 4
	rep.Pipelined = SimulateServing(light)
	return rep, nil
}

// RenderServing formats the E16 report.
func RenderServing(rep *ServingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving sweep: %d stmts/session, service %s hot, window %d, ramp 1 s (virtual), admission %d running / %d queued\n\n",
		rep.Rows[0].Cfg.Requests, fmtPaperMS(rep.Service), rep.Rows[0].Cfg.Window,
		rep.Rows[0].Cfg.Policy.MaxConcurrent, rep.Rows[0].Cfg.Policy.QueueDepth)
	fmt.Fprintf(&b, "%10s %10s %8s %12s %12s %14s\n", "sessions", "completed", "shed", "p50", "p99", "stmts/s")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%10d %10d %8d %12s %12s %14.1f\n",
			r.Sessions, r.Completed, r.Shed, fmtPaperMS(r.P50), fmtPaperMS(r.P99), r.Throughput)
	}
	fmt.Fprintf(&b, "\nProtocol comparison at %d sessions (no admission pressure):\n", rep.Serialized.Cfg.Sessions)
	fmt.Fprintf(&b, "  serialized (window 1): p50 %s, p99 %s\n", fmtPaperMS(rep.Serialized.P50), fmtPaperMS(rep.Serialized.P99))
	fmt.Fprintf(&b, "  pipelined  (window 4): p50 %s, p99 %s\n", fmtPaperMS(rep.Pipelined.P50), fmtPaperMS(rep.Pipelined.P99))
	return b.String()
}

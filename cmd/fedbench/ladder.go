package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/catalog"
	"fedwf/internal/controller"
	"fedwf/internal/exec/batcher"
	"fedwf/internal/fdbs"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/plan"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/storage"
	"fedwf/internal/types"
	"fedwf/internal/wfms"
)

// The traced run. One goroutine replays seeded statements and, for each,
// executes it once at every rung of a probe ladder — each rung a public
// entry point one layer further in:
//
//	client.exec      fdbs.Client.Exec over loopback TCP        layer rpc
//	server.exec      Server.ExecTracedContext                  layer fdbs
//	session.exec     Server.Session() + Session.ExecContext    layer exec
//	sqlparser.parse  sqlparser.Parse                           layer sqlparser
//	plan.compile     plan.CompileSelectOpts                    layer plan
//	udtf.invoke      catalog.InvokeFunc / InvokeFuncBatch      layer udtf
//	controller.*     Bridge.RunWorkflow / CallFunction (Batch) layer controller
//	wfms.run         wfms.Engine.RunContext / RunBatchContext  layer wfms
//	appsys.call      appsys.Registry.CallContext (Batch)       layer appsys
//
// A rung includes everything beneath it, so a layer's self time is its
// rung minus the rungs directly beneath it. The rungs are separate
// executions, not one nested execution: the program is measured only from
// outside. Side probes (storage, the rpc echo) are roots of their own in
// the pseudo-layer "probe".

// span is one timed call into a layer.
type span struct {
	Trace   int    `json:"trace_id"` // statement number within the workload
	ID      int    `json:"span_id"`
	Parent  int    `json:"parent_id"` // 0 = a root
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Mallocs int64  `json:"mallocs"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// selfByLayer sums, per layer, the self time and self allocations of one
// statement's spans: a span's own figure minus its direct children's. A
// negative self time (the child execution happened to run slower than the
// parent's) is clamped to 0 and counted.
func selfByLayer(spans []span) (selfNS, selfMallocs map[string]int64, clamped int) {
	childNS := make(map[int]int64)
	childMallocs := make(map[int]int64)
	for _, s := range spans {
		childNS[s.Parent] += s.dur()
		childMallocs[s.Parent] += s.Mallocs
	}
	selfNS = make(map[string]int64)
	selfMallocs = make(map[string]int64)
	for _, s := range spans {
		ns := s.dur() - childNS[s.ID]
		if ns < 0 {
			ns = 0
			clamped++
		}
		selfNS[s.Layer] += ns
		if m := s.Mallocs - childMallocs[s.ID]; m > 0 {
			selfMallocs[s.Layer] += m
		}
	}
	return selfNS, selfMallocs, clamped
}

// fedCall is the federated call a statement makes: the function, its
// argument rows, and how many rows the plan hands over per invocation
// (1 = the per-row path).
type fedCall struct {
	spec  *fedfunc.Spec
	rows  [][]types.Value
	chunk int
}

// ladderStatements is how many statements the traced run replays at least.
const ladderStatements = 300

// untracedStatements is how many statements the untraced baseline of
// trace.overhead_ratio replays at most.
const untracedStatements = 100

// layerProbe is the pseudo-layer of the side probes: spans outside the
// statement's own tree.
const layerProbe = "probe"

// ladder is the traced run of one workload.
type ladder struct {
	w      *workload
	env    *env
	via    *fdbs.Client // a second session, dialled through the relay
	relay  *relay
	echo   *echo
	rec    *recorder
	apps   *appsys.Registry
	bridge *controller.Bridge
	procs  map[string]*wfms.Process
	table  *storage.Table
	keyCol string
	chk    checker

	base   time.Time
	nextID int
	spans  []span
}

func newLadder(ctx context.Context, w *workload) (*ladder, error) {
	apps, err := appsys.BuildScenario()
	if err != nil {
		return nil, err
	}
	l := &ladder{w: w, apps: apps, procs: make(map[string]*wfms.Process), chk: w.newChecker(), base: time.Now()}
	if w.mutates {
		l.chk.check = func(stmt, *types.Table) error { return nil }
	}
	l.rec = &recorder{inner: rpc.NewInProcBatch(apps.Handler(), apps.BatchHandler())}
	l.env, err = setUp(ctx, w, 1, func(cfg *fdbs.Config) {
		cfg.Apps = apps
		cfg.AppsClient = l.rec
	})
	if err != nil {
		return nil, err
	}
	srv := l.env.srv
	// The stack does not expose its controller, so the ladder builds one in
	// front of the server's own workflow engine and application systems.
	profile := srv.Stack().Profile()
	l.bridge = controller.NewBridge(profile, controller.New(profile, srv.Stack().WorkflowEngine(), l.rec.inner))
	if err := l.startProbes(); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ladder) startProbes() (err error) {
	if l.w.table != "" {
		if l.table, err = l.env.srv.Engine().Catalog().Table(l.w.table); err != nil {
			return err
		}
		l.keyCol = l.table.Schema()[0].Name
	}
	if l.echo, err = startEcho(); err != nil {
		return err
	}
	if l.relay, err = startRelay(l.env.addr); err != nil {
		return err
	}
	l.via, err = fdbs.DialClient(l.relay.ln.Addr().String())
	return err
}

func (l *ladder) close() {
	if l.via != nil {
		l.via.Close()
	}
	if l.relay != nil {
		l.relay.close()
	}
	if l.echo != nil {
		l.echo.close()
	}
	l.env.close()
}

// rung times one call into a layer and records its span.
func (l *ladder) rung(trace, parent int, layer, name string, f func() error) (int, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Since(l.base)
	err := f()
	t1 := time.Since(l.base)
	runtime.ReadMemStats(&m1)
	l.nextID++
	l.spans = append(l.spans, span{Trace: trace, ID: l.nextID, Parent: parent, Layer: layer, Name: name,
		StartNS: int64(t0), EndNS: int64(t1), Mallocs: int64(m1.Mallocs - m0.Mallocs)})
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return l.nextID, err
}

// counters are the server's cumulative counts the ladder reads at the
// client.exec boundary.
type counters struct {
	rpcs, instances, activities, journalSeq, journalDropped, udtfCalls float64
}

func (l *ladder) counters() counters {
	srv := l.env.srv
	rpcs, instances := srv.Stack().Counters()
	c := counters{
		rpcs: float64(rpcs), instances: float64(instances),
		activities:     srv.Metrics().WfMSActivities.Value(),
		journalSeq:     float64(srv.Journal().Seq()),
		journalDropped: float64(srv.Journal().Dropped()),
	}
	for _, f := range srv.Stats().Functions() {
		c.udtfCalls += float64(f.Calls)
	}
	return c
}

// stmtTrace is what the ladder learned about one statement.
type stmtTrace struct {
	rootNS              int64
	selfNS, selfMallocs map[string]int64
	clamped             int
	probeNS             map[string]int64 // side probes, by span name
	counts              map[string]float64
}

// trace executes statement number n once at every rung.
func (l *ladder) trace(ctx context.Context, n int, st stmt) (stmtTrace, error) {
	srv := l.env.srv
	first := len(l.spans)
	t := stmtTrace{probeNS: make(map[string]int64)}

	var res *fdbs.ExecResult
	c0 := l.counters()
	root, err := l.rung(n, 0, "rpc", "client.exec", func() (err error) {
		res, err = l.env.clients[0].Exec(ctx, st.sql)
		return err
	})
	if err != nil {
		return t, err
	}
	c1 := l.counters()
	if err := l.chk.check(st, res.Table); err != nil {
		return t, err
	}
	retained := 0.0
	if res.Meta["trace_retained"] == "1" {
		retained = 1
	}
	t.counts = map[string]float64{
		"appsys.rpcs":          c1.rpcs - c0.rpcs,
		"wfms.instances":       c1.instances - c0.instances,
		"wfms.activities":      c1.activities - c0.activities,
		"fdbs.journal_events":  c1.journalSeq - c0.journalSeq,
		"fdbs.journal_dropped": c1.journalDropped - c0.journalDropped,
		"fdbs.traces_retained": retained,
		"udtf.calls":           c1.udtfCalls - c0.udtfCalls,
		"exec.rows_out":        float64(res.Rows()),
		"fdbs.paper_ms":        res.PaperMS(),
	}

	serve, err := l.rung(n, root, "fdbs", "server.exec", func() error {
		_, _, err := srv.ExecTracedContext(ctx, st.sql, obs.TraceContext{})
		return err
	})
	if err != nil {
		return t, err
	}
	eng, err := l.rung(n, serve, "exec", "session.exec", func() error {
		s := srv.Session()
		s.SetTask(simlat.NewVirtualTask())
		_, err := s.ExecContext(ctx, st.sql)
		return err
	})
	if err != nil {
		return t, err
	}
	var parsed sqlparser.Statement
	if _, err := l.rung(n, eng, "sqlparser", "sqlparser.parse", func() (err error) {
		parsed, err = sqlparser.Parse(st.sql)
		return err
	}); err != nil {
		return t, err
	}
	if sel, ok := parsed.(*sqlparser.Select); ok {
		e := srv.Engine()
		opts := plan.Options{Parallelism: e.Parallelism(), Batch: batcher.Policy{Count: e.BatchSize()}}
		if _, err := l.rung(n, eng, "plan", "plan.compile", func() error {
			_, err := plan.CompileSelectOpts(e.Catalog(), sel, nil, opts)
			return err
		}); err != nil {
			return t, err
		}
	}
	if l.w.fedCall != nil {
		fc := l.w.fedCall(st)
		if err := l.traceFedCall(ctx, n, eng, fc); err != nil {
			return t, err
		}
	}
	tree := l.spans[first:]
	t.rootNS = tree[0].dur()
	t.selfNS, t.selfMallocs, t.clamped = selfByLayer(tree)

	if err := l.sideProbes(ctx, n, st, res, &t); err != nil {
		return t, err
	}
	return t, nil
}

// traceFedCall descends from the UDTF entry to the application systems,
// one chunk of argument rows at a time. What the server sent to the
// application systems during the udtf rung is recorded and replayed
// against the layers beneath.
func (l *ladder) traceFedCall(ctx context.Context, n, parent int, fc *fedCall) error {
	srv := l.env.srv
	fn, err := srv.Engine().Catalog().Func(fc.spec.Name)
	if err != nil {
		return err
	}
	batched := fc.chunk > 1
	for lo := 0; lo < len(fc.rows); lo += fc.chunk {
		rows := fc.rows[lo:min(lo+fc.chunk, len(fc.rows))]
		var u int
		calls, err := l.rec.record(func() (err error) {
			u, err = l.rung(n, parent, "udtf", "udtf.invoke", func() error {
				task := simlat.NewVirtualTask()
				if !batched {
					_, err := catalog.InvokeFunc(ctx, fn, srv.Engine(), task, rows[0])
					return err
				}
				_, err := catalog.InvokeFuncBatch(ctx, fn, srv.Engine(), task, rows)
				return err
			})
			return err
		})
		if err != nil {
			return err
		}
		if srv.Stack().Arch() != fedfunc.ArchWfMS {
			// SQL I-UDTF: every application-system call is one A-UDTF's
			// trip through the controller.
			for _, c := range calls {
				ctl, err := l.rung(n, u, "controller", "controller.call", func() error {
					task := simlat.NewVirtualTask()
					if !c.batch {
						_, err := l.bridge.CallFunction(ctx, task, c.system, c.function, c.rows[0])
						return err
					}
					_, err := l.bridge.CallFunctionBatch(ctx, task, c.system, c.function, c.rows)
					return err
				})
				if err != nil {
					return err
				}
				if err := l.appsysRung(ctx, n, ctl, c); err != nil {
					return err
				}
			}
			continue
		}
		p, err := l.process(fc.spec)
		if err != nil {
			return err
		}
		inputs := make([]map[string]types.Value, len(rows))
		for i, args := range rows {
			inputs[i] = processInput(p, args)
		}
		ctl, err := l.rung(n, u, "controller", "controller.run-workflow", func() error {
			task := simlat.NewVirtualTask()
			if !batched {
				_, err := l.bridge.RunWorkflow(ctx, task, p, inputs[0])
				return err
			}
			_, err := l.bridge.RunWorkflowBatch(ctx, task, p, inputs)
			return err
		})
		if err != nil {
			return err
		}
		wf, err := l.rung(n, ctl, "wfms", "wfms.run", func() error {
			task := simlat.NewVirtualTask()
			if !batched {
				_, err := srv.Stack().WorkflowEngine().RunContext(ctx, task, p, inputs[0])
				return err
			}
			_, err := srv.Stack().WorkflowEngine().RunBatchContext(ctx, task, p, inputs)
			return err
		})
		if err != nil {
			return err
		}
		for _, c := range calls {
			if err := l.appsysRung(ctx, n, wf, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *ladder) appsysRung(ctx context.Context, n, parent int, c appCall) error {
	system := c.system
	if system == "" {
		sys, _, err := l.apps.Resolve(c.function)
		if err != nil {
			return err
		}
		system = sys.Name()
	}
	_, err := l.rung(n, parent, "appsys", "appsys.call", func() error {
		task := simlat.NewVirtualTask()
		if !c.batch {
			_, err := l.apps.CallContext(ctx, task, system, c.function, c.rows[0])
			return err
		}
		_, err := l.apps.CallBatchContext(ctx, task, system, c.function, c.rows)
		return err
	})
	return err
}

// sideProbes times what lies beside the statement's own tree: the rpc
// substrate alone answering with the same table, the statement's size on
// the wire, and the storage layer's three access paths on the workload's
// table.
func (l *ladder) sideProbes(ctx context.Context, n int, st stmt, res *fdbs.ExecResult, t *stmtTrace) error {
	probe := func(name string, f func() error) error {
		_, err := l.rung(n, 0, layerProbe, name, f)
		t.probeNS[name] = l.spans[len(l.spans)-1].dur()
		return err
	}
	l.echo.reply.Store(res)
	if err := probe("rpc.echo", func() error { return l.echo.call(ctx, st.sql) }); err != nil {
		return err
	}
	b0 := l.relay.bytes.Load()
	if _, err := l.via.Exec(ctx, st.sql); err != nil {
		return fmt.Errorf("relayed exec: %w", err)
	}
	t.counts["rpc.wire_bytes"] = float64(l.relay.bytes.Load() - b0)
	if l.table == nil {
		return nil
	}
	key := types.NewInt(int64(st.arg))
	if err := probe("storage.lookup", func() error {
		_, err := l.table.Lookup(l.keyCol, key)
		return err
	}); err != nil {
		return err
	}
	if err := probe("storage.update", func() error {
		_, err := l.table.Update(
			func(r types.Row) bool { return r[0].Equal(key) },
			func(r types.Row) types.Row { return r })
		return err
	}); err != nil {
		return err
	}
	return probe("storage.scan", func() error {
		l.table.Scan()
		return nil
	})
}

// process returns the spec's workflow process, built and validated once as
// the registered UDTF holds it.
func (l *ladder) process(spec *fedfunc.Spec) (*wfms.Process, error) {
	if p := l.procs[spec.Name]; p != nil {
		return p, nil
	}
	p := spec.Process()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l.procs[spec.Name] = p
	return p, nil
}

func processInput(p *wfms.Process, args []types.Value) map[string]types.Value {
	in := make(map[string]types.Value, len(args))
	for i, c := range p.Input {
		in[strings.ToLower(c.Name)] = args[i]
	}
	return in
}

// ladderResult is the traced run of one workload.
type ladderResult struct {
	Statements int                `json:"statements"`
	Metrics    map[string]float64 `json:"metrics"`
	// Shares is the workload's Fig. 6: each layer's median self time as a
	// share of the median client.exec rung.
	Shares map[string]float64 `json:"shares"`
	spans  []span
}

// treeLayers are the layers of a statement's own tree, outermost first.
var treeLayers = []string{"rpc", "fdbs", "exec", "sqlparser", "plan", "udtf", "controller", "wfms", "appsys"}

// runLadder replays the workload's statements from worker 0's seed: first
// untraced, for the p50 the tracing overhead is measured against, then up
// the ladder — at least ladderStatements of them (count when positive),
// and on until budget is used up.
func runLadder(ctx context.Context, w *workload, seed int64, count int, budget time.Duration) (*ladderResult, error) {
	l, err := newLadder(ctx, w)
	if err != nil {
		return nil, err
	}
	defer l.close()
	if count <= 0 {
		count = ladderStatements
	}

	next := w.newGen(rand.New(rand.NewSource(seed*1000)), 0)
	var untraced []float64
	for i := 0; i < min(count, untracedStatements); i++ {
		lat, _, err := execChecked(ctx, l.env.clients[0], l.chk, next())
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, float64(lat.Nanoseconds()))
	}

	next = w.newGen(rand.New(rand.NewSource(seed*1000)), 0)
	var traces []stmtTrace
	start := time.Now()
	for n := 1; n <= count || time.Since(start) < budget; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := l.trace(ctx, n, next())
		if err != nil {
			return nil, fmt.Errorf("%s: statement %d: %w", w.name, n, err)
		}
		traces = append(traces, t)
	}
	return summarize(traces, median(untraced), l.spans), nil
}

// summarize folds the per-statement traces into the per-layer metrics:
// medians for times and allocations, means for counts.
func summarize(traces []stmtTrace, untracedP50NS float64, spans []span) *ladderResult {
	col := func(f func(stmtTrace) float64) []float64 {
		out := make([]float64, len(traces))
		for i, t := range traces {
			out[i] = f(t)
		}
		return out
	}
	selfUS := func(layer string) float64 {
		return median(col(func(t stmtTrace) float64 { return float64(t.selfNS[layer]) / 1e3 }))
	}
	allocs := func(layer string) float64 {
		return median(col(func(t stmtTrace) float64 { return float64(t.selfMallocs[layer]) }))
	}
	probeUS := func(name string) float64 {
		return median(col(func(t stmtTrace) float64 { return float64(t.probeNS[name]) / 1e3 }))
	}
	count := func(name string) float64 {
		return mean(col(func(t stmtTrace) float64 { return t.counts[name] }))
	}
	rootUS := median(col(func(t stmtTrace) float64 { return float64(t.rootNS) / 1e3 }))

	m := map[string]float64{
		"rpc.self_us":            selfUS("rpc"),
		"rpc.allocs":             allocs("rpc"),
		"rpc.echo_us":            probeUS("rpc.echo"),
		"fdbs.telemetry_self_us": selfUS("fdbs"),
		"fdbs.telemetry_allocs":  allocs("fdbs"),
		"sqlparser.parse_us":     selfUS("sqlparser"),
		"sqlparser.allocs":       allocs("sqlparser"),
		"plan.compile_us":        selfUS("plan"),
		"plan.allocs":            allocs("plan"),
		"exec.self_us":           selfUS("exec"),
		"exec.allocs":            allocs("exec"),
		"udtf.self_us":           selfUS("udtf"),
		"udtf.allocs":            allocs("udtf"),
		"controller.self_us":     selfUS("controller"),
		"controller.allocs":      allocs("controller"),
		"wfms.self_us":           selfUS("wfms"),
		"wfms.allocs":            allocs("wfms"),
		"appsys.self_us":         selfUS("appsys"),
		"appsys.allocs":          allocs("appsys"),
		"storage.lookup_us":      probeUS("storage.lookup"),
		"storage.update_us":      probeUS("storage.update"),
		"storage.scan_us":        probeUS("storage.scan"),
		"trace.negative_self":    mean(col(func(t stmtTrace) float64 { return float64(t.clamped) })),
		"trace.client_exec_us":   rootUS,
		"trace.overhead_ratio":   0,
	}
	if untracedP50NS > 0 {
		m["trace.overhead_ratio"] = rootUS * 1e3 / untracedP50NS
	}
	for _, name := range []string{"rpc.wire_bytes", "fdbs.journal_events", "fdbs.journal_dropped", "fdbs.traces_retained", "fdbs.paper_ms",
		"exec.rows_out", "udtf.calls", "wfms.instances", "wfms.activities", "appsys.rpcs"} {
		m[name] = count(name)
	}
	shares := make(map[string]float64, len(treeLayers))
	for _, layer := range treeLayers {
		if rootUS > 0 {
			shares[layer] = selfUS(layer) / rootUS
		}
	}
	return &ladderResult{Statements: len(traces), Metrics: m, Shares: shares, spans: spans}
}

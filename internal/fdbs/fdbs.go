// Package fdbs assembles the paper's integration server (Fig. 2): the
// FDBS engine with the federated functions of the mapping catalog
// registered through the chosen architecture (WfMS or enhanced SQL UDTF),
// the three application systems, the controller, and the SQL wrapper for
// attaching further remote SQL sources. It is the facade used by the
// server binary and the examples.
package fdbs

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/catalog"
	"fedwf/internal/engine"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/obs/journal"
	"fedwf/internal/obs/stats"
	"fedwf/internal/resil"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
	"fedwf/internal/wrapper"
)

// Config selects the integration architecture and its environment.
type Config struct {
	// Arch picks the integration architecture (default: WfMS approach).
	Arch fedfunc.Arch
	// Profile is the simulated cost profile (default: calibrated paper
	// profile).
	Profile simlat.Profile
	// Direct removes the controller from the call path.
	Direct bool
	// Apps shares an existing application-system registry; a fresh
	// scenario is built when nil.
	Apps *appsys.Registry
	// AppsClient places the application systems behind an explicit RPC
	// client (e.g. rpc.Dial to another process). When nil, an in-process
	// client over Apps is used.
	AppsClient rpc.Client
	// Trace configures the trace collector's tail sampling; zero fields
	// take the collector defaults.
	Trace collector.Policy
	// StmtTimeout is the default per-statement virtual-time deadline; zero
	// disables it. Sessions can override it with SET STATEMENT_TIMEOUT.
	StmtTimeout time.Duration
	// Retry guards application-system calls with backoff retries; the zero
	// value disables retrying.
	Retry resil.RetryPolicy
	// Breaker adds a per-application-system circuit breaker; the zero
	// value disables breaking.
	Breaker resil.BreakerPolicy
	// Faults, when non-nil, injects deterministic seedable faults on
	// application-system calls (for chaos tests and experiment E12).
	Faults *resil.Injector
	// PartialResults lets optional lateral branches degrade to NULL
	// padding with warnings instead of failing the statement when their
	// application system is shedding.
	PartialResults bool
	// Admission bounds per-tenant sessions and in-flight statements on
	// the serving path; the zero value admits everything. Beyond the
	// bounded queue, statements are shed with resil.ErrAppSysUnavailable.
	Admission rpc.AdmissionPolicy
}

// Server is one running integration server.
type Server struct {
	stack     *fedfunc.Stack
	apps      *appsys.Registry
	wrapReg   *wrapper.Registry
	rpcSrv    *rpc.Server
	admission rpc.AdmissionPolicy

	metrics   *obs.ServerMetrics
	col       *collector.Collector
	warehouse *stats.Warehouse
	plans     *stats.PlanStore
	jnl       *journal.Journal

	mu   sync.Mutex
	slow *obs.SlowQueryLog
}

// NewServer builds and wires an integration server.
func NewServer(cfg Config) (*Server, error) {
	profile := cfg.Profile
	if profile == (simlat.Profile{}) {
		profile = simlat.DefaultProfile()
	}
	apps := cfg.Apps
	if apps == nil {
		var err error
		apps, err = appsys.BuildScenario()
		if err != nil {
			return nil, err
		}
	}
	metrics := obs.NewServerMetrics(obs.NewRegistry())
	jnl := journal.New(journal.Options{})
	jnl.AttachMetrics(metrics.Registry)
	stack, err := fedfunc.NewStack(cfg.Arch, fedfunc.Options{
		Profile:        profile,
		Direct:         cfg.Direct,
		Apps:           apps,
		AppsClient:     cfg.AppsClient,
		Retry:          cfg.Retry,
		Breaker:        cfg.Breaker,
		Faults:         cfg.Faults,
		StmtTimeout:    cfg.StmtTimeout,
		PartialResults: cfg.PartialResults,
		Observer: resil.Observer{
			OnRetry: func(ctx context.Context, system string, _ int, _ time.Duration) {
				metrics.Retries.With(system).Inc()
				stats.FromContext(ctx).AddRetry()
				jnl.Append(journal.Event{Kind: journal.KindRetry,
					Func: system, Row: -1, StartVT: jnl.Now()})
			},
			OnBreakerTransition: func(ctx context.Context, system string, _, to resil.BreakerState) {
				if to == resil.BreakerOpen {
					metrics.BreakerTrips.With(system).Inc()
					stats.FromContext(ctx).AddBreakerTrip()
					jnl.Append(journal.Event{Kind: journal.KindBreaker,
						Func: system, Detail: "open", Class: "circuit_open",
						Row: -1, StartVT: jnl.Now()})
				}
			},
			OnShed: func(ctx context.Context, system string) {
				metrics.BreakerSheds.With(system).Inc()
				stats.FromContext(ctx).AddShed()
				jnl.Append(journal.Event{Kind: journal.KindShed,
					Func: system, Class: "circuit_open", Row: -1, StartVT: jnl.Now()})
			},
			OnTimeout: func(ctx context.Context, system string) {
				metrics.Timeouts.With(system).Inc()
				stats.FromContext(ctx).AddTimeout()
				jnl.Append(journal.Event{Kind: journal.KindTimeout,
					Func: system, Class: "timeout", Row: -1, StartVT: jnl.Now()})
			},
		},
	})
	if err != nil {
		return nil, err
	}
	wrapReg := wrapper.NewRegistry(profile)
	if err := wrapReg.Link(stack.Engine()); err != nil {
		return nil, err
	}
	stack.WorkflowEngine().SetActivityObserver(func() { metrics.WfMSActivities.Inc() })
	// The per-run wfms audit trail is redirected into the journal, so
	// instance history survives the run and is queryable afterwards.
	stack.WorkflowEngine().SetJournal(jnl)
	col := collector.New(cfg.Trace, metrics.Registry)
	warehouse := stats.NewWarehouse(stats.Options{})
	warehouse.AttachMetrics(metrics.Registry)
	plans := stats.NewPlanStore(0)
	stack.Engine().SetPlanStats(plans)
	// The federation observes itself through its own query path: the
	// warehouse's aggregates are SELECT-able as ordinary relations.
	cat := stack.Engine().Catalog()
	for _, v := range []*catalog.VirtualTable{
		{Name: "fed_stat_statements", Sch: stats.StatementsSchema(), Provider: warehouse.StatementsTable},
		{Name: "fed_stat_functions", Sch: stats.FunctionsSchema(), Provider: warehouse.FunctionsTable},
		{Name: "fed_audit_events", Sch: journal.EventsSchema(), Provider: jnl.EventsTable},
		{Name: "fed_wf_instances", Sch: journal.InstancesSchema(), Provider: jnl.InstancesTable},
		{Name: "fed_wf_activities", Sch: journal.ActivitiesSchema(), Provider: jnl.ActivitiesTable},
	} {
		if err := cat.RegisterVirtual(v); err != nil {
			return nil, err
		}
	}
	return &Server{stack: stack, apps: apps, wrapReg: wrapReg, admission: cfg.Admission,
		metrics: metrics, col: col, warehouse: warehouse, plans: plans, jnl: jnl}, nil
}

// Session opens a SQL session against the integration server.
func (s *Server) Session() *engine.Session { return s.stack.Engine().NewSession() }

// Stack exposes the architecture stack (for experiments).
func (s *Server) Stack() *fedfunc.Stack { return s.stack }

// Engine exposes the FDBS engine.
func (s *Server) Engine() *engine.Engine { return s.stack.Engine() }

// Apps exposes the application systems.
func (s *Server) Apps() *appsys.Registry { return s.apps }

// AttachInProcSource registers an in-process remote SQL engine under a
// target name; CREATE SERVER ... OPTIONS (target '<name>') then federates
// it.
func (s *Server) AttachInProcSource(target string, eng *engine.Engine) {
	s.wrapReg.AddInProc(target, eng)
}

// Metrics exposes the server's metric bundle.
func (s *Server) Metrics() *obs.ServerMetrics { return s.metrics }

// Collector exposes the trace collector behind /traces.
func (s *Server) Collector() *collector.Collector { return s.col }

// Stats exposes the statement-statistics warehouse (behind /stats and the
// fed_stat_* virtual tables).
func (s *Server) Stats() *stats.Warehouse { return s.warehouse }

// PlanStats exposes the per-plan-shape measured actuals store.
func (s *Server) PlanStats() *stats.PlanStore { return s.plans }

// Journal exposes the audit journal (behind /audit, /slo, and the
// fed_audit_events / fed_wf_instances / fed_wf_activities virtual tables).
func (s *Server) Journal() *journal.Journal { return s.jnl }

// MetricsRegistry exposes the registry behind the server's metrics, for
// the /metrics endpoint.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics.Registry }

// SetSlowQueryLog installs (or, with nil, removes) the slow-query log
// consulted after every served statement.
func (s *Server) SetSlowQueryLog(l *obs.SlowQueryLog) {
	s.mu.Lock()
	s.slow = l
	s.mu.Unlock()
}

func (s *Server) slowLog() *obs.SlowQueryLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slow
}

// Protocol functions served by Listen.
const (
	fnExec = "exec"
)

// ExecTracedContext runs one statement on a fresh session with a
// per-request virtual cost meter, records serving-path metrics, consults
// the slow-query log, and returns the result table alongside timing
// metadata (paper_ms, wall_ms, rows, cache counters, arch). The engine
// session still drives the integration stack, so the simulated latency is
// the paper's per-statement elapsed time; wall time is the real serving
// duration of this process.
//
// The statement's span tree adopts the trace ID of tc, every completed
// statement is offered to the trace collector (tail sampling decides
// retention), and — when the caller sampled the request — the span tree is
// shipped back as a fragment in the metadata so the caller can graft it.
// Any relative statement timeout carried on ctx (e.g. re-armed by the RPC
// server from the wire) is anchored to the statement's fresh virtual
// meter, and cancellation aborts the statement between operators.
func (s *Server) ExecTracedContext(ctx context.Context, text string, tc obs.TraceContext) (*types.Table, map[string]string, error) {
	archLabel := s.stack.Arch().Label()
	task := simlat.NewVirtualTask()
	session := s.Session()
	session.SetTask(task)
	tr := obs.Trace(task, "fdbs.exec", obs.Attr{Key: "arch", Value: archLabel})
	traceID := tc.TraceID
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	tr.Root().SetTraceID(traceID)
	s.metrics.InFlight.Add(1)
	// Per-statement execution-shape counters ride the context through the
	// whole stack (RPC client, workflow engine, resilience executor, batch
	// path); the warehouse folds them in when the statement finishes.
	ctx, stmtCounters := stats.WithStmtCounters(ctx)
	// A scale-0 wall task reads real time without sleeping; routing the
	// serving-duration measurement through the simlat meter keeps every
	// clock read in the federation behind one interface (rule virtualclock).
	wallMeter := simlat.NewWallTask(0)
	res, err := session.ExecContext(ctx, text)
	wall := wallMeter.Elapsed()
	root := tr.Finish()
	s.metrics.InFlight.Add(-1)
	paper := task.Elapsed()

	status := "ok"
	if err != nil {
		status = "error"
		root.SetAttr("error", err.Error())
	}
	s.metrics.Queries.With(archLabel, status).Inc()
	s.metrics.LatencyPaperMS.With(archLabel).Observe(float64(paper) / float64(simlat.PaperMS))
	cs := session.LastCacheStats()
	s.metrics.CacheHits.Add(float64(cs.Hits))
	s.metrics.CacheMisses.Add(float64(cs.Misses))
	s.metrics.CacheCoalesced.Add(float64(cs.Coalesced))
	s.metrics.Parallelism.Set(float64(s.Engine().Parallelism()))

	meta := map[string]string{
		"arch":            archLabel,
		"paper_ms":        fmt.Sprintf("%.3f", float64(paper)/float64(simlat.PaperMS)),
		"paper_ns":        strconv.FormatInt(int64(paper), 10),
		"wall_ms":         fmt.Sprintf("%.3f", float64(wall)/float64(time.Millisecond)),
		"cache_hits":      strconv.Itoa(cs.Hits),
		"cache_misses":    strconv.Itoa(cs.Misses),
		"cache_coalesced": strconv.Itoa(cs.Coalesced),
		obs.MetaTraceID:   traceID,
	}
	snap := obs.SnapshotSpan(root)
	// One wide journal event per statement, one per federated call inside
	// it, anchored at the federation-wide virtual instant the journal
	// stamps the statement with; the clock then advances by the statement's
	// simulated time. The events carry the fingerprint the warehouse
	// returns — its entry's own string, so the journal ring pins no copy
	// per event.
	cnt := stmtCounters.Snapshot()
	stmtEvent := journal.Event{
		TraceID:   traceID,
		Arch:      archLabel,
		Row:       -1,
		RPCs:      cnt.RPCs,
		Instances: cnt.Instances,
		DurVT:     paper,
	}
	if err != nil {
		stmtEvent.Class = stats.ClassifyError(err)
		stmtEvent.Err = err.Error()
	}
	emitJournal := func(fp string, rows int) {
		stmtEvent.Fingerprint, stmtEvent.Rows = fp, rows
		base := s.jnl.AppendStatement(stmtEvent)
		callTmpl := journal.Event{TraceID: traceID, Fingerprint: fp, Arch: archLabel, StartVT: base}
		for _, ce := range journal.CallEvents(snap, callTmpl) {
			s.jnl.Append(ce)
		}
	}
	record := stats.StatementRecord{
		SQL:            text,
		Arch:           archLabel,
		Err:            err,
		Paper:          paper,
		Wall:           wall,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheCoalesced: cs.Coalesced,
		Counters:       stmtCounters,
		Funcs:          stats.FuncObservations(snap),
	}
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	if s.col.Offer(&collector.Trace{
		ID: traceID, Statement: text, Arch: archLabel, Error: errStr,
		Forced: tc.Sampled, Paper: paper, Wall: wall, Root: snap,
	}) {
		meta["trace_retained"] = "1"
	}
	if tc.Sampled {
		// Ship the span tree back to the caller; the transport (or the
		// caller) grafts it under the span that issued this statement.
		frag := &obs.Fragment{TraceID: traceID, ParentSpanID: tc.SpanID, Root: snap}
		if enc, encErr := frag.Encode(); encErr == nil && len(enc) <= obs.MaxInlineFragmentBytes {
			meta[obs.MetaTraceFragment] = enc
		} else {
			meta[obs.MetaTracePushed] = traceID
		}
	}
	if err != nil {
		emitJournal(s.warehouse.RecordStatement(record), 0)
		return nil, meta, err
	}
	if res.Partial {
		meta["partial"] = "1"
		s.metrics.PartialResults.Inc()
	}
	if len(res.Warnings) > 0 {
		meta["warnings"] = strings.Join(res.Warnings, "; ")
	}

	out := res.Table
	if out == nil {
		out = types.NewTable(types.Schema{{Name: "Result", Type: types.VarChar}})
		msg := res.Message
		if msg == "" {
			msg = fmt.Sprintf("%d rows affected", res.RowsAffected)
		}
		out.MustAppend(types.Row{types.NewString(msg)})
	}
	rows := out.Len()
	meta["rows"] = strconv.Itoa(rows)
	record.Rows = rows
	emitJournal(s.warehouse.RecordStatement(record), rows)
	s.metrics.RowsReturned.With(archLabel).Add(float64(rows))
	if s.slowLog().Observe(text, paper, wall, rows, root) {
		s.metrics.SlowQueries.Inc()
	}
	return out, meta, nil
}

// handler serves the client protocol: "exec" runs any statement; queries
// return their table, other statements return a one-row message table. The
// transport's task is ignored — each statement gets its own virtual meter
// so the latency metrics stay deterministic and per-request.
func (s *Server) handler() rpc.MetaHandler {
	return func(ctx context.Context, _ *simlat.Task, req rpc.Request) (*types.Table, map[string]string, error) {
		if !strings.EqualFold(req.Function, fnExec) {
			return nil, nil, fmt.Errorf("fdbs: unknown protocol function %s", req.Function)
		}
		if len(req.Args) != 1 {
			return nil, nil, fmt.Errorf("fdbs: exec expects one statement argument")
		}
		text, err := req.Args[0].AsString()
		if err != nil {
			return nil, nil, err
		}
		return s.ExecTracedContext(ctx, text, req.Trace)
	}
}

// Listen serves the client protocol over TCP until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	if s.rpcSrv != nil {
		return nil, fmt.Errorf("fdbs: server already listening")
	}
	s.rpcSrv = rpc.NewServerMeta(s.handler())
	// The admission controller is always installed (a zero policy admits
	// everything) so the fedwf_sessions_* / fedwf_admission_* metric
	// families and the session journal trail exist on every server.
	s.rpcSrv.SetAdmission(rpc.NewAdmission(s.admission, s.metrics.Serving, rpc.AdmissionObserver{
		OnSessionOpen: func(tenant, proto string) {
			s.jnl.Append(journal.Event{Kind: journal.KindSession, Func: tenant,
				Detail: "open/" + proto, Row: -1, StartVT: s.jnl.Now()})
		},
		OnSessionClose: func(tenant string) {
			s.jnl.Append(journal.Event{Kind: journal.KindSession, Func: tenant,
				Detail: "close", Row: -1, StartVT: s.jnl.Now()})
		},
		OnSessionReject: func(tenant string) {
			s.jnl.Append(journal.Event{Kind: journal.KindSession, Func: tenant,
				Detail: "rejected", Class: "appsys_unavailable", Row: -1, StartVT: s.jnl.Now()})
		},
		OnShed: func(tenant string) {
			s.jnl.Append(journal.Event{Kind: journal.KindShed, Func: tenant,
				Detail: "admission", Class: "appsys_unavailable", Row: -1, StartVT: s.jnl.Now()})
		},
	}))
	s.rpcSrv.SetTraceSink(func(f *obs.Fragment) {
		s.col.Offer(&collector.Trace{ID: f.TraceID, Statement: "(oversized fragment)", Root: f.Root, Forced: true})
	})
	// After the graceful drain, push the buffered observability sinks out
	// so a SIGTERM loses neither slow-query lines nor journal tail events.
	s.rpcSrv.SetDrainHook(func() { s.FlushSinks() })
	return s.rpcSrv.Listen(addr)
}

// FlushSinks drains the buffered observability sinks: the slow-query log
// and the audit journal's JSONL file. Shutdown runs it automatically; it
// is exported for embedders that serve without Listen.
func (s *Server) FlushSinks() {
	_ = s.slowLog().Flush()
	_ = s.jnl.Flush()
}

// Close stops the TCP listener, if any.
func (s *Server) Close() error { return s.Shutdown(0) }

// Shutdown stops the TCP listener, draining in-flight statements for up to
// grace before severing connections.
func (s *Server) Shutdown(grace time.Duration) error {
	if s.rpcSrv == nil {
		// Never listened (embedded use): still flush the sinks.
		s.FlushSinks()
		return nil
	}
	err := s.rpcSrv.Shutdown(grace) // drain hook flushes the sinks
	s.rpcSrv = nil
	return err
}

// Client is a remote session against a listening integration server.
type Client struct {
	c rpc.Client
}

// ClientOption configures DialClient.
type ClientOption func(*clientConfig)

type clientConfig struct {
	tenant string
}

// WithTenant sets the tenant this session is accounted under; the
// server's per-tenant session quotas, admission limits, and serving
// metrics key on it.
func WithTenant(tenant string) ClientOption {
	return func(c *clientConfig) { c.tenant = tenant }
}

// DialClient connects to a listening integration server over the framed
// multiplexed protocol: pipelined statements over one connection, typed
// errors, tenant accounting.
func DialClient(addr string, opts ...ClientOption) (*Client, error) {
	var cfg clientConfig
	for _, o := range opts {
		o(&cfg)
	}
	var dopts []rpc.DialOption
	if cfg.tenant != "" {
		dopts = append(dopts, rpc.WithTenant(cfg.tenant))
	}
	c, err := rpc.DialMux(addr, dopts...)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// ExecResult is the outcome of one remotely executed statement: the
// result table, the server's per-statement metadata, and — when tracing
// was requested — the grafted cross-process span tree.
type ExecResult struct {
	// Table is the statement's result (a one-row message table for
	// non-queries); nil when the statement failed.
	Table *types.Table
	// Meta is the server's timing metadata (paper_ms, wall_ms, rows,
	// cache counters, arch, trace keys); may be non-nil even on error.
	Meta map[string]string
	// Trace is the client-side root span with the server's fragment
	// grafted under it (the full waterfall client.exec → rpc.call →
	// rpc.serve → fdbs.exec → …). Nil unless WithTrace was given.
	Trace *obs.Span
}

func (r *ExecResult) metaFloat(key string) float64 {
	if r == nil || r.Meta == nil {
		return 0
	}
	f, _ := strconv.ParseFloat(r.Meta[key], 64)
	return f
}

// PaperMS is the server-reported simulated statement latency in paper
// milliseconds (0 when metadata is absent).
func (r *ExecResult) PaperMS() float64 { return r.metaFloat("paper_ms") }

// WallMS is the server-reported real serving duration in milliseconds
// (0 when metadata is absent).
func (r *ExecResult) WallMS() float64 { return r.metaFloat("wall_ms") }

// Rows is the server-reported result row count, falling back to the
// table length when metadata is absent.
func (r *ExecResult) Rows() int {
	if r == nil {
		return 0
	}
	if r.Meta != nil {
		if n, err := strconv.Atoi(r.Meta["rows"]); err == nil {
			return n
		}
	}
	if r.Table != nil {
		return r.Table.Len()
	}
	return 0
}

// Partial reports that optional branches degraded to NULL padding.
func (r *ExecResult) Partial() bool { return r != nil && r.Meta != nil && r.Meta["partial"] == "1" }

// Warnings returns the statement's warnings, if any.
func (r *ExecResult) Warnings() []string {
	if r == nil || r.Meta == nil || r.Meta["warnings"] == "" {
		return nil
	}
	return strings.Split(r.Meta["warnings"], "; ")
}

// ExecOption configures one Exec call.
type ExecOption func(*execConfig)

type execConfig struct {
	trace bool
}

// WithTrace requests the cross-process trace waterfall: the statement is
// force-sampled, the server ships its span tree back, and ExecResult.Trace
// carries the grafted client-side root.
func WithTrace() ExecOption {
	return func(c *execConfig) { c.trace = true }
}

// Exec runs one statement remotely under ctx and returns its result with
// the server's timing metadata. A relative statement timeout attached
// with resil.WithTimeout travels on the wire, and the server enforces it
// on the statement's virtual clock; cancelling ctx abandons the call.
// The returned *ExecResult is never nil — on error it still carries any
// metadata (and trace) the server reported, so failure timing and
// classification stay observable.
func (c *Client) Exec(ctx context.Context, sql string, opts ...ExecOption) (*ExecResult, error) {
	var cfg execConfig
	for _, o := range opts {
		o(&cfg)
	}
	req := rpc.Request{Function: fnExec, Args: []types.Value{types.NewString(sql)}}
	res := &ExecResult{}
	mc := c.c.(rpc.MetaCaller) // what DialMux returns always is one
	if !cfg.trace {
		tab, meta, err := mc.CallMeta(ctx, nil, req)
		res.Table, res.Meta = tab, meta
		return res, err
	}
	// A wall task with scale 0 reads real time without sleeping, so the
	// client-side spans measure the true round trip; the live trace on it
	// marks the request sampled, which the transport puts on the wire.
	task := simlat.NewWallTask(0)
	tr := obs.Trace(task, "client.exec")
	tab, meta, err := mc.CallMeta(ctx, task, req)
	root := tr.Finish()
	if id := meta[obs.MetaTraceID]; id != "" {
		root.SetTraceID(id)
	}
	res.Table, res.Meta, res.Trace = tab, meta, root
	return res, err
}

// Close releases the connection.
func (c *Client) Close() error { return c.c.Close() }

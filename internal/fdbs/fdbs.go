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
	})
	if err != nil {
		return nil, err
	}
	metrics.Parallelism.ReadFrom(func() float64 { return float64(stack.Engine().Parallelism()) })
	wrapReg := wrapper.NewRegistry(profile)
	if err := wrapReg.Link(stack.Engine()); err != nil {
		return nil, err
	}
	col := collector.New(cfg.Trace, metrics.Registry)
	warehouse := stats.NewWarehouse(stats.Options{})
	warehouse.AttachMetrics(metrics.Registry)
	plans := stats.NewPlanStore(0)
	stack.Engine().SetPlanStats(plans)
	// The federation observes itself through its own query path, and only
	// there: the warehouse, the journal, the SLO monitor and the trace
	// store are SELECT-able as ordinary relations. An introspection
	// statement is served and recorded like any other.
	cat := stack.Engine().Catalog()
	for _, v := range []*catalog.VirtualTable{
		{Name: "fed_stat_statements", Sch: stats.StatementsSchema(), Provider: warehouse.StatementsTable},
		{Name: "fed_stat_functions", Sch: stats.FunctionsSchema(), Provider: warehouse.FunctionsTable},
		{Name: "fed_audit_events", Sch: journal.EventsSchema(), Provider: jnl.EventsTable},
		{Name: "fed_wf_instances", Sch: journal.InstancesSchema(), Provider: jnl.InstancesTable},
		{Name: "fed_wf_activities", Sch: journal.ActivitiesSchema(), Provider: jnl.ActivitiesTable},
		{Name: "fed_slo", Sch: journal.SLOSchema(), Provider: jnl.SLOTable},
		{Name: "fed_traces", Sch: TracesSchema(), Provider: func() (*types.Table, error) { return TracesTable(col) }},
		{Name: "fed_spans", Sch: SpansSchema(), Provider: func() (*types.Table, error) { return SpansTable(col) }},
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

// Collector exposes the trace collector behind the fed_traces and
// fed_spans virtual tables.
func (s *Server) Collector() *collector.Collector { return s.col }

// Stats exposes the statement-statistics warehouse behind the fed_stat_*
// virtual tables.
func (s *Server) Stats() *stats.Warehouse { return s.warehouse }

// PlanStats exposes the per-plan-shape measured actuals store.
func (s *Server) PlanStats() *stats.PlanStore { return s.plans }

// Journal exposes the audit journal behind the fed_audit_events,
// fed_wf_instances, fed_wf_activities and fed_slo virtual tables.
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
// per-request virtual cost meter, describes the finished statement once as
// an obs.Statement — folded by the metrics, the trace collector, the
// statistics warehouse, the audit journal and the slow-query log — and
// returns the result table alongside timing metadata (paper_ms, wall_ms,
// rows, cache counters, arch). The engine
// session still drives the integration stack, so the simulated latency is
// the paper's per-statement elapsed time; wall time is the real serving
// duration of this process.
//
// The statement's span tree adopts the trace ID of tc, and every completed
// statement is offered to the trace collector (tail sampling decides
// retention). Any relative statement timeout carried on ctx (e.g. re-armed
// by the RPC server from the wire) is anchored to the statement's fresh
// virtual meter, and cancellation aborts the statement between operators.
func (s *Server) ExecTracedContext(ctx context.Context, text string, tc obs.TraceContext) (*types.Table, map[string]string, error) {
	return s.execTraced(ctx, text, tc, nil)
}

// metaKeys is how many keys a statement's metadata can hold: the eight
// every statement reports, trace_retained, partial, warnings and rows, and
// the trace fragment the transport adds to a sampled request's.
const metaKeys = 13

// execTraced is ExecTracedContext serving a request: when the caller
// sampled it, the finished span tree is grafted under serve, the span the
// transport traces the request under, which ships it back to the caller.
func (s *Server) execTraced(ctx context.Context, text string, tc obs.TraceContext, serve *obs.Span) (*types.Table, map[string]string, error) {
	archLabel := s.stack.Arch().Label()
	task := simlat.NewVirtualTask()
	session := s.stack.Engine().NewSessionOn(task)
	tr := obs.Trace(task, "fdbs.exec", obs.Attr{Key: "arch", Value: archLabel})
	traceID := tc.TraceID
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	tr.Root().SetTraceID(traceID)
	s.metrics.InFlight.Add(1)
	// Per-statement execution-shape counters ride the context through the
	// whole stack; each layer counts what it does where it does it.
	ctx, stmtCounters := obs.WithStmtCounters(ctx)
	// The serving duration is real time, read from the stopwatch; the
	// statement's cost is the task's paper time (rule virtualclock).
	sw := simlat.StartStopwatch()
	res, err := session.ExecContext(ctx, text)
	wall := sw.Elapsed()
	root := tr.Finish()
	s.metrics.InFlight.Add(-1)

	cs := session.LastCacheStats()
	st := obs.Statement{
		TraceID:        traceID,
		SQL:            text,
		Arch:           archLabel,
		Paper:          task.Elapsed(),
		Wall:           wall,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheCoalesced: cs.Coalesced,
		Counters:       stmtCounters.Snapshot(),
		Root:           root,
		Forced:         tc.Sampled,
	}
	var out *types.Table
	if err != nil {
		st.Err, st.Class = err.Error(), stats.ClassifyError(err)
		root.SetAttr("error", st.Err)
	} else {
		out = resultTable(res)
		st.Rows, st.Partial = out.Len(), res.Partial
	}
	// One walk of the finished tree finds the statement's federated calls;
	// the journal, the warehouse and the collector's histogram read that
	// one list, and only a retained or sampled tree is read again.
	st.Calls = obs.FedCalls(root, nil)

	// The map is sized for every key it can end with, and the three
	// timings share one string: "%.3f" paper ms, the paper ns, and wall ms
	// as obs.WallMS renders it.
	var num [96]byte
	b := strconv.AppendFloat(num[:0], float64(st.Paper)/float64(simlat.PaperMS), 'f', 3, 64)
	paperMS := len(b)
	b = strconv.AppendInt(b, int64(st.Paper), 10)
	paperNS := len(b)
	b = strconv.AppendFloat(b, float64(wall)/float64(time.Millisecond), 'f', 3, 64)
	timings := string(b)
	meta := make(map[string]string, metaKeys)
	meta["arch"] = archLabel
	meta["paper_ms"] = timings[:paperMS]
	meta["paper_ns"] = timings[paperMS:paperNS]
	meta["wall_ms"] = timings[paperNS:]
	meta["cache_hits"] = strconv.Itoa(cs.Hits)
	meta["cache_misses"] = strconv.Itoa(cs.Misses)
	meta["cache_coalesced"] = strconv.Itoa(cs.Coalesced)
	meta[obs.MetaTraceID] = traceID
	s.metrics.ObserveStatement(&st)
	if s.col.Offer(&st) {
		meta["trace_retained"] = "1"
	}
	// The journal stamps the fingerprint the warehouse returns — its
	// entry's own string, so the journal ring pins no copy per event.
	s.jnl.AppendStatement(&st, s.warehouse.RecordStatement(&st))
	if s.slowLog().Observe(&st) {
		s.metrics.SlowQueries.Inc()
	}
	if tc.Sampled {
		// The statement's clock and the serve span's both began at zero,
		// so the live tree grafts under it unshifted; the transport ships
		// the combined tree back to the caller.
		obs.Graft(serve, root)
	}
	if err != nil {
		return nil, meta, err
	}
	if res.Partial {
		meta["partial"] = "1"
	}
	if len(res.Warnings) > 0 {
		meta["warnings"] = strings.Join(res.Warnings, "; ")
	}
	meta["rows"] = strconv.Itoa(st.Rows)
	return out, meta, nil
}

// resultTable is what a successful statement returns: a query's table, or
// a one-row message table for any other statement.
func resultTable(res *engine.Result) *types.Table {
	if res.Table != nil {
		return res.Table
	}
	out := types.NewTable(types.Schema{{Name: "Result", Type: types.VarChar}})
	msg := res.Message
	if msg == "" {
		msg = fmt.Sprintf("%d rows affected", res.RowsAffected)
	}
	out.MustAppend(types.Row{types.NewString(msg)})
	return out
}

// handler serves the client protocol: "exec" runs any statement; queries
// return their table, other statements return a one-row message table. The
// transport's task charges nothing — each statement gets its own virtual
// meter so the latency metrics stay deterministic and per-request — but a
// sampled request's span tree grafts under the task's rpc.serve span.
func (s *Server) handler() rpc.MetaHandler {
	return func(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, map[string]string, error) {
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
		return s.execTraced(ctx, text, req.Trace, obs.CurrentSpan(task))
	}
}

// Listen serves the client protocol over TCP until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	if s.rpcSrv != nil {
		return nil, fmt.Errorf("fdbs: server already listening")
	}
	rs := rpc.NewServerMeta(s.handler())
	// The admission controller is always installed (a zero policy admits
	// everything) so the fedwf_sessions_* / fedwf_admission_* metric
	// families and the session journal trail exist on every server.
	rs.SetAdmission(rpc.NewAdmission(s.admission, s.metrics.Serving, rpc.AdmissionObserver{
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
	// After the graceful drain, push the buffered observability sinks out
	// so a SIGTERM loses neither slow-query lines nor journal tail events.
	rs.SetDrainHook(func() { s.FlushSinks() })
	// The server counts as listening only once the bind succeeded, so a
	// failed Listen can be retried.
	a, err := rs.Listen(addr)
	if err != nil {
		return nil, err
	}
	s.rpcSrv = rs
	return a, nil
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
	// The client's clock charges nothing: the grafted server tree carries
	// the statement's paper time, and the round trip rides as wall_ms. The
	// live trace marks the request sampled, which the transport puts on the wire.
	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "client.exec")
	sw := simlat.StartStopwatch()
	tab, meta, err := mc.CallMeta(ctx, task, req)
	root := tr.Finish()
	root.SetAttr("wall_ms", obs.WallMS(sw.Elapsed()))
	if id := meta[obs.MetaTraceID]; id != "" {
		root.SetTraceID(id)
	}
	res.Table, res.Meta, res.Trace = tab, meta, root
	return res, err
}

// Close releases the connection.
func (c *Client) Close() error { return c.c.Close() }

// Package rpc is the communication substrate standing in for the paper's
// Java RMI: the hops between integration UDTFs, the controller, the
// workflow engine, and the application systems.
//
// Two transports exist:
//
//   - in-process (NewInProc): a direct call that threads the caller's
//     simlat.Task through, so simulated costs charged inside the callee
//     land on the caller's meter. All virtual-clock experiments use it.
//   - TCP with the framed binary protocol (Server/DialMux): a magic
//     preamble and a hello/ack handshake, then length-prefixed frames
//     with request ids and out-of-order responses — many concurrent calls
//     multiplexed over one connection. The callee cannot charge the
//     caller's virtual meter across a wire, so TCP is meaningful in wall
//     mode, where server-side sleeps are observed by the blocked client.
//     A peer that does not open with the magic is hung up on.
//
// The server additionally runs session management and admission control
// (see Admission): per-tenant session quotas at the handshake and a
// bounded per-tenant admission queue per request, shedding the excess
// with resil.ErrAppSysUnavailable instead of queueing unboundedly.
package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// Request names one function invocation on a target system.
type Request struct {
	System   string
	Function string
	Args     []types.Value
	// Trace is the caller's trace context. In-process transports ignore
	// it (the live span rides the task); the TCP transport puts it on the
	// wire so servers can open child spans under the remote parent. The
	// zero value means untraced.
	Trace obs.TraceContext
}

// BatchRequest names one set-oriented invocation: the same function
// applied to N parameter rows in a single round trip. The reply carries
// one result table per row, in row order.
type BatchRequest struct {
	System   string
	Function string
	Rows     [][]types.Value
	// Trace is the caller's trace context, as on Request.
	Trace obs.TraceContext
}

// Handler serves requests. The context carries the statement's deadline
// and cancellation; the task is the caller's cost meter for in-process
// transports and a free meter for TCP servers.
type Handler func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error)

// BatchHandler serves set-oriented requests: it returns exactly one result
// table per request row. A nil BatchHandler on a server or in-process
// client makes the transport fall back to invoking the row handler once
// per row, so batch-capable clients interoperate with row-oriented
// services.
type BatchHandler func(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error)

// MetaHandler is a Handler that additionally returns response metadata
// (string key/value pairs shipped alongside the result table); the fdbs
// protocol uses it for per-statement timing and cache statistics.
type MetaHandler func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error)

// metaOf lifts a plain Handler into a MetaHandler with no metadata.
func metaOf(h Handler) MetaHandler {
	return func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error) {
		res, err := h(ctx, task, req)
		return res, nil, err
	}
}

// Client issues requests.
type Client interface {
	Call(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error)
	Close() error
}

// MetaCaller is implemented by clients that surface response metadata;
// both built-in transports do.
type MetaCaller interface {
	CallMeta(ctx context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error)
}

// BatchCaller is implemented by clients that ship N parameter rows in one
// wire request (the database/sql optional-interface pattern, like
// MetaCaller). Both built-in transports implement it.
type BatchCaller interface {
	CallBatch(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error)
}

// CallBatch issues a set-oriented request through any client: natively
// when the client implements BatchCaller, else by degrading to one Call
// per row — so callers can batch unconditionally and old transports keep
// working. The result always has exactly one table per request row.
func CallBatch(ctx context.Context, task *simlat.Task, c Client, req BatchRequest) ([]*types.Table, error) {
	if bc, ok := c.(BatchCaller); ok {
		return bc.CallBatch(ctx, task, req)
	}
	out := make([]*types.Table, len(req.Rows))
	for i, args := range req.Rows {
		res, err := c.Call(ctx, task, Request{System: req.System, Function: req.Function, Args: args, Trace: req.Trace})
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// ----------------------------------------------------------- in-process

type inProcClient struct {
	h  MetaHandler
	bh BatchHandler
}

// NewInProc returns a client that dispatches directly to the handler.
func NewInProc(h Handler) Client { return &inProcClient{h: metaOf(h)} }

// NewInProcMeta returns an in-process client over a metadata-returning
// handler.
func NewInProcMeta(h MetaHandler) Client { return &inProcClient{h: h} }

// NewInProcBatch returns an in-process client that dispatches row requests
// to h and set-oriented requests to bh. A nil bh falls back to one h call
// per row.
func NewInProcBatch(h Handler, bh BatchHandler) Client {
	return &inProcClient{h: metaOf(h), bh: bh}
}

// Call implements Client.
func (c *inProcClient) Call(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
	res, _, err := c.CallMeta(ctx, task, req)
	return res, err
}

// CallMeta implements MetaCaller.
func (c *inProcClient) CallMeta(ctx context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error) {
	if err := resil.Check(ctx, task); err != nil {
		return nil, nil, err
	}
	sp := obs.StartSpan(task, "rpc.call", obs.Attr{Key: "system", Value: req.System}, obs.Attr{Key: "function", Value: req.Function})
	defer sp.End(task)
	return c.h(ctx, task, req)
}

// CallBatch implements BatchCaller: one logical round trip for N rows.
func (c *inProcClient) CallBatch(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error) {
	if err := resil.Check(ctx, task); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(task, "rpc.call.batch",
		obs.Attr{Key: "system", Value: req.System},
		obs.Attr{Key: "function", Value: req.Function},
		obs.Attr{Key: "batch_size", Value: fmt.Sprintf("%d", len(req.Rows))})
	defer sp.End(task)
	if c.bh != nil {
		out, err := c.bh(ctx, task, req)
		if err != nil {
			return nil, err
		}
		if len(out) != len(req.Rows) {
			return nil, fmt.Errorf("rpc: batch handler returned %d tables for %d rows", len(out), len(req.Rows))
		}
		return out, nil
	}
	out := make([]*types.Table, len(req.Rows))
	for i, args := range req.Rows {
		res, _, err := c.h(ctx, task, Request{System: req.System, Function: req.Function, Args: args, Trace: req.Trace})
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// Close implements Client.
func (c *inProcClient) Close() error { return nil }

// ------------------------------------------------------- guard middleware

// guardKey names the breaker/injection stream a request belongs to: the
// target system, or the function for system-resolved dispatches.
func guardKey(req Request) string {
	if req.System != "" {
		return req.System
	}
	return "fn:" + req.Function
}

type guardClient struct {
	c  Client
	ex *resil.Executor
}

// Guard wraps a client with a resil.Executor: every call passes the
// per-system circuit breaker and, on transient failure, the retry loop.
// Installing it on the controller's shared application-system client
// protects both integration architectures at one choke point.
func Guard(c Client, ex *resil.Executor) Client {
	if ex == nil {
		return c
	}
	return &guardClient{c: c, ex: ex}
}

// Call implements Client.
func (g *guardClient) Call(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
	return g.ex.Call(ctx, task, guardKey(req), func(ctx context.Context) (*types.Table, error) {
		return g.c.Call(ctx, task, req)
	})
}

// CallMeta implements MetaCaller when the wrapped client does; metadata of
// the successful (final) attempt is returned. When the wrapped client is
// not a MetaCaller, a successful call carries an explicit empty map —
// never nil — so callers can distinguish "no metadata available" from "the
// call failed" without a nil check.
func (g *guardClient) CallMeta(ctx context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error) {
	mc, ok := g.c.(MetaCaller)
	if !ok {
		res, err := g.Call(ctx, task, req)
		if err != nil {
			return nil, nil, err
		}
		return res, map[string]string{}, nil
	}
	var meta map[string]string
	res, err := g.ex.Call(ctx, task, guardKey(req), func(ctx context.Context) (*types.Table, error) {
		r, m, err := mc.CallMeta(ctx, task, req)
		meta = m
		return r, err
	})
	return res, meta, err
}

// CallBatch implements BatchCaller: the whole batch passes the breaker and
// retry loop as one unit — a batch is one wire request, so it fails,
// retries, and trips breakers atomically.
func (g *guardClient) CallBatch(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error) {
	var out []*types.Table
	key := guardKey(Request{System: req.System, Function: req.Function})
	_, err := g.ex.Call(ctx, task, key, func(ctx context.Context) (*types.Table, error) {
		res, err := CallBatch(ctx, task, g.c, req)
		out = res
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close implements Client.
func (g *guardClient) Close() error { return g.c.Close() }

type faultClient struct {
	c  Client
	in *resil.Injector
}

// WithFaults wraps a client with a fault injector consulted before each
// call: injected failures return without reaching the wrapped transport,
// injected latency is charged to the task. Compose inside Guard —
// Guard(WithFaults(c, inj), ex) — so every retry attempt re-rolls.
func WithFaults(c Client, in *resil.Injector) Client {
	if in == nil {
		return c
	}
	return &faultClient{c: c, in: in}
}

// Call implements Client.
func (f *faultClient) Call(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
	if err := f.in.Inject(ctx, task, guardKey(req)); err != nil {
		return nil, err
	}
	return f.c.Call(ctx, task, req)
}

// CallMeta implements MetaCaller when the wrapped client does.
func (f *faultClient) CallMeta(ctx context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error) {
	if err := f.in.Inject(ctx, task, guardKey(req)); err != nil {
		return nil, nil, err
	}
	if mc, ok := f.c.(MetaCaller); ok {
		return mc.CallMeta(ctx, task, req)
	}
	res, err := f.c.Call(ctx, task, req)
	return res, nil, err
}

// CallBatch implements BatchCaller: one injection roll per batch, because
// a batch is one wire request.
func (f *faultClient) CallBatch(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error) {
	if err := f.in.Inject(ctx, task, guardKey(Request{System: req.System, Function: req.Function})); err != nil {
		return nil, err
	}
	return CallBatch(ctx, task, f.c, req)
}

// Close implements Client.
func (f *faultClient) Close() error { return f.c.Close() }

// ------------------------------------------------------------- wire form

// call is one request as the framed codec reads and writes it.
type call struct {
	system, function string
	args             []types.Value
	batch            [][]types.Value // non-empty: one result table per row; args is irrelevant
	trace            obs.TraceContext
	deadlineMS       int64 // statement time remaining at send, paper ms; 0: none
}

// reply is the answer to a call.
type reply struct {
	err       error        // handler or admission failure; typed again on the client
	table     *types.Table // nil on error
	meta      map[string]string
	batch     []*types.Table // set-oriented replies: one table per request row
	batchErrs []string       // per-entry failures a peer reported, parallel to batch; nil if none
}

// ------------------------------------------------------------ TCP server

// Server serves RPC requests over TCP: one framed multiplexed session per
// connection that opens with the protocol magic and a hello.
type Server struct {
	h   MetaHandler
	bh  BatchHandler
	ln  net.Listener
	adm *Admission // nil admits everything

	handshake time.Duration // how long a connection may take to send magic and hello; tests shorten it

	sessionSeq atomic.Uint64 // framed session ids

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
	inflight  int           // requests currently being handled or encoded
	idle      chan struct{} // non-nil while a Shutdown waits for drain; closed at inflight==0
	traceSink atomic.Value  // func(*obs.Fragment), for fragments too big to inline
	drainHook func()        // runs after the graceful drain, before Shutdown returns
}

// beginRequest marks one request in flight.
func (s *Server) beginRequest() {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
}

// endRequest retires one request and wakes a draining Shutdown when the
// server goes idle.
func (s *Server) endRequest() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// NewServer creates a server around a handler.
func NewServer(h Handler) *Server {
	return NewServerMeta(metaOf(h))
}

// NewServerMeta creates a server around a metadata-returning handler.
func NewServerMeta(h MetaHandler) *Server {
	return &Server{h: h, handshake: handshakeTimeout, conns: make(map[net.Conn]struct{})}
}

// SetBatchHandler installs a set-oriented handler consulted for requests
// that carry batch rows. Without one, the server falls back to running the
// row handler once per batch row — batch clients still get a correct
// per-row reply, just without server-side amortization. Install it at
// wiring time, before Listen.
func (s *Server) SetBatchHandler(bh BatchHandler) { s.bh = bh }

// SetAdmission installs the session manager / admission controller
// consulted at every handshake and request; nil (the default) admits
// everything. Install it at wiring time, before Listen.
func (s *Server) SetAdmission(a *Admission) { s.adm = a }

// Admission returns the installed admission controller, or nil.
func (s *Server) Admission() *Admission { return s.adm }

// SetDrainHook installs a function Shutdown runs once after the graceful
// drain completes (listener closed, in-flight requests finished or cut,
// serving goroutines joined) — the place to flush buffered observability
// sinks such as the slow-query log and the audit-journal JSONL file, so a
// SIGTERM loses no tail events. Install it at wiring time, before Listen.
func (s *Server) SetDrainHook(f func()) { s.drainHook = f }

// SetTraceSink installs the destination for server-side span fragments
// that exceed the inline metadata cap: typically a collector's Offer. When
// no sink is set, oversized fragments are pruned until they fit inline.
func (s *Server) SetTraceSink(sink func(*obs.Fragment)) {
	s.traceSink.Store(sink)
}

func (s *Server) fragmentSink() func(*obs.Fragment) {
	sink, _ := s.traceSink.Load().(func(*obs.Fragment))
	return sink
}

// Listen binds the address (use "127.0.0.1:0" for an ephemeral port) and
// serves in the background until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn admits one accepted connection to the framed protocol: a peer
// that does not open with the magic is hung up on without a reply. Until
// its hello is acknowledged the connection holds no session, so admission
// cannot see it; the handshake deadline is what bounds how long a silent
// peer keeps its socket and goroutine.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	if armHandshake(conn, s.handshake) != nil {
		return
	}
	br := bufio.NewReader(conn)
	peek, err := br.Peek(len(muxMagic))
	if err != nil || string(peek) != muxMagic {
		return
	}
	br.Discard(len(muxMagic))
	s.serveFramed(conn, br)
}

// serveFramed is the multiplexed transport loop: after the hello/ack
// handshake (which enforces the tenant session quota), every request
// frame is handled on its own goroutine and answered whenever it
// finishes — responses return out of order, keyed by request id.
func (s *Server) serveFramed(conn net.Conn, br *bufio.Reader) {
	payload, err := readFrame(br)
	if err != nil {
		return
	}
	_, tenant, err := decodeHello(payload)
	if err != nil {
		return
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	var wmu sync.Mutex // serializes response frames on conn
	closeSession, serr := s.adm.OpenSession(tenant, "framed")
	if serr != nil {
		wmu.Lock()
		_ = writeFrame(conn, encodeHelloAck(0, classOf(serr), serr.Error()))
		wmu.Unlock()
		return
	}
	defer closeSession()
	sid := s.sessionSeq.Add(1)
	wmu.Lock()
	err = writeFrame(conn, encodeHelloAck(sid, classGeneric, ""))
	wmu.Unlock()
	// Only the handshake is timed; an established session may idle.
	if err != nil || conn.SetDeadline(time.Time{}) != nil {
		return
	}
	// One context per connection: when the read loop exits (client hung
	// up), in-flight handlers and queued admission waits are cancelled.
	//fedlint:ignore ctxfirst the connection handler is a request root; there is no caller context to thread
	connCtx, cancel := context.WithCancel(context.Background())
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	defer cancel()
	for {
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		id, c, err := decodeFrameRequest(payload)
		if err != nil {
			return
		}
		s.beginRequest()
		reqWG.Add(1)
		go func(id uint64, c *call) {
			defer reqWG.Done()
			defer s.endRequest()
			frame := encodeFrameResponse(id, s.handleWire(connCtx, tenant, c))
			wmu.Lock()
			werr := writeFrame(conn, frame)
			wmu.Unlock()
			if werr != nil {
				cancel() // the connection is dead; unblock siblings
			}
		}(id, c)
	}
}

// handleWire executes one call — admission, deadline re-arming, tracing,
// row or batch dispatch — and returns its reply; a failure rides in
// reply.err (the codec derives the error class from it).
func (s *Server) handleWire(ctx context.Context, tenant string, c *call) *reply {
	rep := &reply{}
	if c.deadlineMS > 0 {
		// Re-arm the remaining statement time as a relative timeout;
		// the handler anchors it to whatever task it runs under. The
		// admission wait below burns the same budget.
		ctx = resil.WithTimeout(ctx, time.Duration(c.deadlineMS)*simlat.PaperMS)
	}
	release, aerr := s.adm.Admit(ctx, tenant)
	if aerr != nil {
		rep.err = aerr
		return rep
	}
	defer release()
	task := simlat.Free()
	var tr *obs.Tracer
	if c.trace.Sampled {
		// A sampled request gets a real-time meter (scale 0: Elapsed
		// reads the wall clock, simulated charges never sleep) so the
		// server-side spans carry true serving durations, and a local
		// root under the remote parent's trace.
		task = simlat.NewWallTask(0)
		tr = obs.Trace(task, "rpc.serve",
			obs.Attr{Key: "system", Value: c.system},
			obs.Attr{Key: "function", Value: c.function})
		tr.Root().SetTraceID(c.trace.TraceID)
	}
	if len(c.batch) > 0 {
		rep.batch, rep.err = s.serveBatch(ctx, task, BatchRequest{
			System: c.system, Function: c.function, Rows: c.batch, Trace: c.trace})
	} else {
		rep.table, rep.meta, rep.err = s.h(ctx, task, Request{
			System: c.system, Function: c.function, Args: c.args, Trace: c.trace})
		if rep.err != nil {
			rep.table = nil // a failed call ships its error and metadata only
		}
	}
	if tr != nil {
		rep.meta = s.finishServeTrace(tr, c.trace, rep.meta, rep.err)
	}
	return rep
}

// serveBatch dispatches a set-oriented request to the batch handler, or —
// when none is installed — replays it as one row-handler call per row, so
// the wire contract (one table per row) holds either way.
func (s *Server) serveBatch(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error) {
	if s.bh != nil {
		out, err := s.bh(ctx, task, req)
		if err != nil {
			return nil, err
		}
		if len(out) != len(req.Rows) {
			return nil, fmt.Errorf("rpc: batch handler returned %d tables for %d rows", len(out), len(req.Rows))
		}
		return out, nil
	}
	out := make([]*types.Table, len(req.Rows))
	for i, args := range req.Rows {
		res, _, err := s.h(ctx, task, Request{System: req.System, Function: req.Function, Args: args, Trace: req.Trace})
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// finishServeTrace closes the serve-side trace and decides how its
// fragment travels back. If the handler itself produced a fragment (the
// fdbs exec path does), it is grafted under this server's root first, so
// exactly one combined fragment leaves the process. Small fragments ship
// inline in the response metadata; oversized ones go to the trace sink
// (when set) and only their trace ID is announced, else they are pruned
// until they fit.
func (s *Server) finishServeTrace(tr *obs.Tracer, tc obs.TraceContext, meta map[string]string, err error) map[string]string {
	root := tr.Finish()
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	if enc, ok := meta[obs.MetaTraceFragment]; ok {
		if frag, derr := obs.DecodeFragment(enc); derr == nil && frag.Root != nil {
			obs.Graft(root, obs.SpanFromData(frag.Root, root.Start()))
		}
		delete(meta, obs.MetaTraceFragment)
	}
	frag := &obs.Fragment{TraceID: tc.TraceID, ParentSpanID: tc.SpanID, Root: obs.SnapshotSpan(root)}
	enc, encErr := frag.Encode()
	if encErr != nil {
		return meta
	}
	if meta == nil {
		meta = make(map[string]string, 1)
	}
	if len(enc) > obs.MaxInlineFragmentBytes {
		if sink := s.fragmentSink(); sink != nil {
			go sink(frag)
			meta[obs.MetaTracePushed] = tc.TraceID
			return meta
		}
		frag.Root = frag.Root.PruneToSize(obs.MaxInlineFragmentBytes)
		if enc, encErr = frag.Encode(); encErr != nil {
			return meta
		}
	}
	meta[obs.MetaTraceFragment] = enc
	return meta
}

// Addr returns the bound address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and all connections and waits for the serving
// goroutines to finish.
func (s *Server) Close() error { return s.Shutdown(0) }

// Shutdown closes the listener, then waits up to grace for in-flight
// requests to finish (connections stay open, so clients receive their
// pending responses) before severing all connections. A zero grace cuts
// immediately, as Close does.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	if grace > 0 {
		s.mu.Lock()
		var idle chan struct{}
		if s.inflight > 0 {
			if s.idle == nil {
				s.idle = make(chan struct{})
			}
			idle = s.idle
		}
		s.mu.Unlock()
		if idle != nil {
			//fedlint:ignore virtualclock the shutdown grace is real process time, not a measured federation path
			timer := time.NewTimer(grace)
			select {
			case <-idle:
			case <-timer.C:
			}
			timer.Stop()
		}
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	if s.drainHook != nil {
		s.drainHook()
	}
	return err
}

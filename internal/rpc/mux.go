// The multiplexed TCP client for the framed binary protocol.
//
// One connection carries many concurrent calls: every request gets a
// connection-unique id, a single reader goroutine dispatches responses to
// the waiting calls by id, and responses may return out of order — so N
// goroutines pipelining statements share one socket instead of N. Dialing
// sends the magic preamble and the hello in one write; a peer that does not
// answer with a well-formed hello-ack inside the handshake window fails
// the dial with ErrTransport.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// handshakeTimeout is how long either end waits for the other's half of
// the negotiation: the client for the hello-ack, the server for magic and
// hello.
const handshakeTimeout = 5 * time.Second

// armHandshake gives conn d from now to finish the negotiation; d <= 0
// sets no deadline.
func armHandshake(conn net.Conn, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	//fedlint:ignore virtualclock handshake guard against peers that never answer is wall-protocol plumbing
	return conn.SetDeadline(time.Now().Add(d))
}

// DialOption configures DialMux.
type DialOption func(*dialConfig)

type dialConfig struct {
	tenant    string
	handshake time.Duration
}

// WithTenant sets the tenant the session is accounted under; the server's
// per-tenant quotas and metrics key on it. Default: "default".
func WithTenant(tenant string) DialOption {
	return func(c *dialConfig) { c.tenant = tenant }
}

// WithoutFallback is an accepted no-op: there is no second transport left
// to fall back to. It stays only because cmd/fedbench/probes.go passes it,
// and leaves with that call in the next benchmark PR.
func WithoutFallback() DialOption {
	return func(*dialConfig) {}
}

// WithHandshakeTimeout bounds the protocol negotiation (not the calls).
// Default: 5s.
func WithHandshakeTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.handshake = d }
}

// DialMux connects to a server with the framed multiplexed protocol. The
// returned client is safe for concurrent use: calls are pipelined over
// the single connection and responses return out of order. A peer that
// hangs up, stays silent past the handshake timeout or answers anything
// but a hello-ack fails the dial with an error matching ErrTransport; a
// handshake the server answers with a typed rejection (e.g. session quota
// exhausted) fails with that error.
func DialMux(addr string, opts ...DialOption) (Client, error) {
	cfg := dialConfig{tenant: DefaultTenant, handshake: handshakeTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	mc, err := handshake(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return mc, nil
}

// handshake performs the framed negotiation on conn.
func handshake(conn net.Conn, cfg dialConfig) (*muxClient, error) {
	if err := armHandshake(conn, cfg.handshake); err != nil {
		return nil, &transportError{"handshake", err}
	}
	// Magic + hello go out in one write so the negotiation is one segment.
	if _, err := conn.Write(encodeHello(cfg.tenant)); err != nil {
		return nil, &transportError{"handshake send", err}
	}
	br := bufio.NewReader(conn)
	payload, err := readFrame(br)
	if err != nil {
		// EOF / reset: the peer does not speak the protocol and hung up;
		// a timeout means it never answered.
		return nil, &transportError{"handshake receive", err}
	}
	_, class, errMsg, err := decodeHelloAck(payload)
	if err != nil {
		return nil, &transportError{"handshake decode", err}
	}
	if errMsg != "" {
		return nil, errFromWire(class, errMsg)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, &transportError{"handshake", err}
	}
	mc := &muxClient{conn: conn, br: br, pending: make(map[uint64]chan *reply), done: make(chan struct{})}
	go mc.readLoop()
	return mc, nil
}

type muxClient struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan *reply
	nextID  uint64
	closed  bool
	readErr error
	done    chan struct{} // closed when the reader dies
}

// readLoop dispatches response frames to the pending calls by request id.
func (c *muxClient) readLoop() {
	for {
		payload, err := readFrame(c.br)
		if err != nil {
			c.fail(&transportError{"receive", err})
			return
		}
		id, rep, err := decodeFrameResponse(payload)
		if err != nil {
			c.fail(&transportError{"receive", err})
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- rep
		}
	}
}

// fail terminates the connection: every in-flight and future call gets
// the terminal error.
func (c *muxClient) fail(err error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.readErr = err
		close(c.done)
	}
	c.mu.Unlock()
	c.conn.Close()
}

// roundTrip sends one request frame and waits for its response. The error
// is the transport's own failure; what the server reported is in the reply,
// typed (errors.Is against the resil taxonomy works across the wire).
// Cancellation only abandons this call — the connection and its other
// in-flight calls stay healthy; the reader drops the late response by its
// id. A call too large to frame fails as a plain error for the same reason.
func (c *muxClient) roundTrip(ctx context.Context, cl *call) (*reply, error) {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = &transportError{"send", net.ErrClosed}
		}
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *reply, 1)
	c.pending[id] = ch
	c.mu.Unlock()
	frame, err := encodeFrameRequest(id, cl)
	if err == nil {
		c.wmu.Lock()
		err = writeFrame(c.conn, frame)
		c.wmu.Unlock()
		if err != nil {
			err = &transportError{"send", err}
		}
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case rep := <-ch:
		return rep, nil
	case <-done:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, &transportError{"call cancelled", ctx.Err()}
	case <-c.done:
		// The reader died; drain a response that may have been dispatched
		// before the failure.
		select {
		case rep := <-ch:
			return rep, nil
		default:
		}
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
}

// newCall starts an outgoing call: the trace context (the task's live span
// unless the request carries a sampled one) and the remaining statement
// deadline.
func newCall(ctx context.Context, task *simlat.Task, system, function string, tc obs.TraceContext) *call {
	if !tc.Sampled {
		tc = obs.ContextFrom(task)
	}
	c := &call{system: system, function: function, trace: tc}
	if rem, ok := resil.Remaining(ctx, task); ok && rem > 0 {
		c.deadlineMS = int64(rem / simlat.PaperMS)
	}
	return c
}

// graftReplyFragment grafts a server-side span fragment shipped in the
// response metadata under the local call span, and strips it from the
// map. A fragment that does not decode — a peer built before fragments
// travelled in the compact codec sends JSON — leaves the call's table
// alone and sets a fragment_error attribute on the call span, so a trace
// without the server's subtree says why.
func graftReplyFragment(sp *obs.Span, meta map[string]string) {
	enc, ok := meta[obs.MetaTraceFragment]
	if !ok {
		return
	}
	if sp != nil {
		root, err := obs.DecodeTrace([]byte(enc))
		switch {
		case err != nil:
			sp.SetAttr("fragment_error", err.Error())
		case root != nil:
			obs.Graft(sp, obs.SpanFromData(root, sp.Start()))
		}
	}
	delete(meta, obs.MetaTraceFragment)
}

// Call implements Client. The task is not transmitted: a TCP callee
// charges its own clock, in paper time like the caller's.
func (c *muxClient) Call(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
	res, _, err := c.CallMeta(ctx, task, req)
	return res, err
}

// CallMeta implements MetaCaller. When the task carries a live trace, the
// span's context travels with the call and the server's span fragment —
// returned in the response metadata — is grafted under the local rpc.call
// span, stitching the cross-process waterfall. The statement's remaining
// deadline ships with the call.
func (c *muxClient) CallMeta(ctx context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error) {
	if err := resil.Check(ctx, task); err != nil {
		return nil, nil, err
	}
	sp := obs.StartSpan(task, "rpc.call", obs.Attr{Key: "system", Value: req.System}, obs.Attr{Key: "function", Value: req.Function})
	defer sp.End(task)
	cl := newCall(ctx, task, req.System, req.Function, req.Trace)
	cl.args = req.Args
	rep, err := c.roundTrip(ctx, cl)
	if err != nil {
		return nil, nil, err
	}
	graftReplyFragment(sp, rep.meta)
	if rep.err != nil {
		sp.SetAttr("error", rep.err.Error())
		return nil, rep.meta, rep.err
	}
	return rep.table, rep.meta, nil
}

// CallBatch implements BatchCaller: N parameter rows travel in one wire
// request and the reply carries one table (or error) per row. Deadline and
// trace propagation follow CallMeta.
func (c *muxClient) CallBatch(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error) {
	if err := resil.Check(ctx, task); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(task, "rpc.call.batch",
		obs.Attr{Key: "system", Value: req.System},
		obs.Attr{Key: "function", Value: req.Function},
		obs.Attr{Key: "batch_size", Value: fmt.Sprintf("%d", len(req.Rows))})
	defer sp.End(task)
	cl := newCall(ctx, task, req.System, req.Function, req.Trace)
	cl.batch = req.Rows
	rep, err := c.roundTrip(ctx, cl)
	if err != nil {
		return nil, err
	}
	graftReplyFragment(sp, rep.meta)
	if rep.err != nil {
		sp.SetAttr("error", rep.err.Error())
		return nil, rep.err
	}
	if len(rep.batch) != len(req.Rows) {
		return nil, fmt.Errorf("rpc: batch reply has %d entries for %d rows", len(rep.batch), len(req.Rows))
	}
	for _, msg := range rep.batchErrs {
		if msg != "" {
			return nil, errors.New(msg)
		}
	}
	return rep.batch, nil
}

// Close implements Client.
func (c *muxClient) Close() error {
	c.fail(&transportError{"send", net.ErrClosed})
	return nil
}

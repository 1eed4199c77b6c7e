package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// gatedHandler blocks calls whose function has a registered gate channel
// until the test closes it, and reports handler entry on entered (when
// non-nil) so tests can sequence concurrency deterministically.
func gatedHandler(gates *sync.Map, entered chan<- string) Handler {
	return func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
		if entered != nil {
			entered <- req.Function
		}
		if ch, ok := gates.Load(req.Function); ok {
			select {
			case <-ch.(chan struct{}):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return echoHandler(ctx, task, req)
	}
}

func TestDialMuxRoundTrip(t *testing.T) {
	srv := NewServer(echoHandler)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*muxClient); !ok {
		t.Fatalf("DialMux against a framed server returned %T, want *muxClient", c)
	}
	tab, err := c.Call(context.Background(), simlat.Free(), Request{
		System: "stock", Function: "GetQuality", Args: []types.Value{types.NewInt(7)}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0].Str() != "stock" || tab.Rows[0][2].Int() != 1 {
		t.Errorf("echo = %v", tab.Rows[0])
	}
}

// TestMuxPipelinedOutOfOrder proves the multiplexing contract: three calls
// pipelined over ONE connection complete in the reverse of their send
// order, each receiving its own response.
func TestMuxPipelinedOutOfOrder(t *testing.T) {
	var gates sync.Map
	entered := make(chan string, 3)
	for _, fn := range []string{"f1", "f2", "f3"} {
		gates.Store(fn, make(chan struct{}))
	}
	srv := NewServer(gatedHandler(&gates, entered))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		fn  string
		tab *types.Table
		err error
	}
	results := make(chan result, 3)
	launch := func(fn string) {
		go func() {
			tab, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: fn})
			results <- result{fn, tab, err}
		}()
	}
	// Send f1, f2, f3 in order, waiting for each to reach the handler so
	// the server holds all three of one connection's requests at once.
	for _, fn := range []string{"f1", "f2", "f3"} {
		launch(fn)
		if got := <-entered; got != fn {
			t.Fatalf("handler entered %q, want %q", got, fn)
		}
	}
	// Release in reverse order; each response must arrive (and carry the
	// right function) before the next gate opens.
	for _, fn := range []string{"f3", "f2", "f1"} {
		ch, _ := gates.Load(fn)
		close(ch.(chan struct{}))
		r := <-results
		if r.err != nil {
			t.Fatalf("call %s: %v", fn, r.err)
		}
		if got := r.tab.Rows[0][1].Str(); got != fn || r.fn != fn {
			t.Fatalf("response for %q delivered to call %q (table says %q)", fn, r.fn, got)
		}
	}
}

// TestMuxCancelAbandonsOneCall: cancelling a pipelined call abandons only
// that call — the connection and subsequent calls stay healthy.
func TestMuxCancelAbandonsOneCall(t *testing.T) {
	var gates sync.Map
	gate := make(chan struct{})
	gates.Store("slow", gate)
	entered := make(chan string, 2)
	srv := NewServer(gatedHandler(&gates, entered))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, simlat.Free(), Request{System: "s", Function: "slow"})
		errc <- err
	}()
	<-entered // the request is in flight server-side before we cancel
	cancel()
	if err := <-errc; !errors.Is(err, ErrTransport) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call error = %v, want transport+Canceled", err)
	}
	close(gate) // let the abandoned handler finish; its response is dropped by id
	// The same connection serves the next call.
	tab, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "after"})
	if err != nil {
		t.Fatalf("call after cancellation: %v", err)
	}
	if tab.Rows[0][1].Str() != "after" {
		t.Errorf("echo = %v", tab.Rows[0])
	}
}

// TestMuxTypedErrorsAcrossWire: the resil taxonomy survives the framed
// wire — errors.Is matches on the client side of a TCP hop.
func TestMuxTypedErrorsAcrossWire(t *testing.T) {
	srv := NewServer(func(_ context.Context, _ *simlat.Task, req Request) (*types.Table, error) {
		switch req.Function {
		case "timeout":
			return nil, fmt.Errorf("statement deadline: %w", resil.ErrTimeout)
		case "open":
			return nil, fmt.Errorf("breaker: %w", resil.ErrCircuitOpen)
		default:
			return nil, errors.New("semantic failure")
		}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Call(ctx, simlat.Free(), Request{Function: "timeout"}); !errors.Is(err, resil.ErrTimeout) {
		t.Errorf("timeout error lost its type across the wire: %v", err)
	}
	if _, err := c.Call(ctx, simlat.Free(), Request{Function: "open"}); !errors.Is(err, resil.ErrCircuitOpen) {
		t.Errorf("circuit-open error lost its type across the wire: %v", err)
	}
	if _, err := c.Call(ctx, simlat.Free(), Request{Function: "other"}); err == nil ||
		errors.Is(err, resil.ErrTimeout) || errors.Is(err, ErrTransport) {
		t.Errorf("semantic error = %v, want plain untyped error", err)
	}
}

// foreignPeer listens on loopback, counts the connections it accepts and
// hands each to serve: a peer that does not speak the framed protocol.
func foreignPeer(t *testing.T, serve func(net.Conn)) (net.Addr, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts := new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr(), accepts
}

// TestDialMuxWithoutFallback: against a peer that hangs up on the hello and
// one that never answers it, DialMux fails with a transport error after a
// single connection — there is no second transport to retry with.
func TestDialMuxWithoutFallback(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	peers := map[string]func(net.Conn){
		"hangs up": func(conn net.Conn) { conn.Close() },
		"stays silent": func(conn net.Conn) {
			<-release
			conn.Close()
		},
	}
	for name, serve := range peers {
		addr, accepts := foreignPeer(t, serve)
		c, err := DialMux(addr.String(), WithHandshakeTimeout(50*time.Millisecond))
		if err == nil {
			c.Close()
			t.Fatalf("peer %s: DialMux succeeded", name)
		}
		if !errors.Is(err, ErrTransport) {
			t.Errorf("peer %s: handshake failure = %v, want ErrTransport", name, err)
		}
		time.Sleep(20 * time.Millisecond) // a second dial would have landed by now
		if n := accepts.Load(); n != 1 {
			t.Errorf("peer %s: saw %d connections for one DialMux, want exactly 1", name, n)
		}
	}
}

// sessionCounter is an admission controller with a session quota of one
// that counts the sessions it opened.
func sessionCounter() (*Admission, *atomic.Int64) {
	opened := new(atomic.Int64)
	return NewAdmission(AdmissionPolicy{MaxSessionsPerTenant: 1}, nil, AdmissionObserver{
		OnSessionOpen: func(string, string) { opened.Add(1) },
	}), opened
}

// wantHungUp fails the test unless the server closes conn within d without
// having sent a byte.
func wantHungUp(t *testing.T, conn net.Conn, d time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(d))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read from the server = (%d bytes, %v), want the connection closed with nothing sent", n, err)
	}
}

// openConns is how many accepted connections the server still tracks.
func openConns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestGobPeerIsHungUpOn: a client of the retired gob transport gets its
// connection closed without a byte in reply and without a session.
func TestGobPeerIsHungUpOn(t *testing.T) {
	srv := NewServer(echoHandler)
	adm, opened := sessionCounter()
	srv.SetAdmission(adm)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	type gobRequest struct {
		System, Function string
		DeadlineMS       int64
	}
	if err := gob.NewEncoder(conn).Encode(gobRequest{System: "stock", Function: "GetQuality", DeadlineMS: 1500}); err != nil {
		t.Fatal(err)
	}
	wantHungUp(t, conn, 2*time.Second)
	if n := opened.Load(); n != 0 {
		t.Errorf("%d sessions opened for a peer that never said hello", n)
	}
}

// TestSilentPeersAreClosedAfterTheHandshakeWindow: connections that send
// nothing, or the magic and then nothing, hold no session — admission
// cannot bound them — so the handshake deadline must: the server hangs up
// on all of them and forgets them. A peer that completes the handshake is
// not timed afterwards.
func TestSilentPeersAreClosedAfterTheHandshakeWindow(t *testing.T) {
	const window = 150 * time.Millisecond
	srv := NewServer(echoHandler)
	srv.handshake = window
	adm, opened := sessionCounter()
	srv.SetAdmission(adm)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	const peers = 200
	conns := make([]net.Conn, peers)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", addr.String()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		if i%2 == 1 {
			if _, err := conns[i].Write([]byte(muxMagic)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, conn := range conns {
		wantHungUp(t, conn, 20*window)
	}
	deadline := time.Now().Add(20 * window)
	for openConns(srv) != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := openConns(srv); n != 1 {
		t.Errorf("server still tracks %d connections, want only the handshaken one", n)
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("%d sessions opened, want 1", n)
	}
	// The handshaken session has now idled for several windows.
	if _, err := good.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "late"}); err != nil {
		t.Errorf("call on a session idle past the handshake window: %v", err)
	}
	good.Close()
	for openConns(srv) != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := openConns(srv); n != 0 {
		t.Errorf("server still tracks %d connections after every peer left", n)
	}
}

// TestMuxSessionQuotaRejectionTyped: a handshake the server answers with a
// quota rejection fails typed, not as a transport failure.
func TestMuxSessionQuotaRejectionTyped(t *testing.T) {
	srv := NewServer(echoHandler)
	srv.SetAdmission(NewAdmission(AdmissionPolicy{MaxSessionsPerTenant: 1}, nil, AdmissionObserver{}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, err := DialMux(addr.String(), WithTenant("acme"))
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Same tenant, second session: refused at the handshake, typed.
	if c, err := DialMux(addr.String(), WithTenant("acme")); err == nil {
		c.Close()
		t.Fatal("second session dialed past a quota of 1")
	} else if !errors.Is(err, resil.ErrAppSysUnavailable) {
		t.Fatalf("quota rejection = %v, want ErrAppSysUnavailable", err)
	}
	// A different tenant has its own quota.
	other, err := DialMux(addr.String(), WithTenant("globex"))
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	other.Close()
}

// TestServerShedsOverloadTyped is the end-to-end load-shedding contract:
// with one execution slot and no queue, a second concurrent statement on
// the same tenant is shed with resil.ErrAppSysUnavailable while the first
// completes — and the shed leaves the connection healthy.
func TestServerShedsOverloadTyped(t *testing.T) {
	var gates sync.Map
	gate := make(chan struct{})
	gates.Store("held", gate)
	entered := make(chan string, 1)
	srv := NewServer(gatedHandler(&gates, entered))
	srv.SetAdmission(NewAdmission(AdmissionPolicy{MaxConcurrent: 1}, nil, AdmissionObserver{}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "held"})
		done <- err
	}()
	<-entered // the first statement holds the only slot
	if _, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "shed-me"}); !errors.Is(err, resil.ErrAppSysUnavailable) {
		t.Fatalf("over-capacity call = %v, want ErrAppSysUnavailable", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-quota call failed: %v", err)
	}
	// The shed was a response, not a hangup: the connection still serves.
	if _, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "after"}); err != nil {
		t.Fatalf("call after shed: %v", err)
	}
}

// TestOversizedMessagesFailOnlyTheirCall: a result (or a request) that does
// not fit one frame is an ordinary error for the call that produced it.
// Before the encoder sized a frame ahead of writing it, writeFrame's
// refusal was mistaken for a dead connection: the caller's id was never
// answered, and every sibling and later statement on the session failed
// with "context canceled".
func TestOversizedMessagesFailOnlyTheirCall(t *testing.T) {
	huge := strings.Repeat("x", maxFrameBytes+1)
	var gates sync.Map
	gates.Store("sibling", make(chan struct{}))
	entered := make(chan string, 4)
	gated := gatedHandler(&gates, entered)
	srv := NewServer(func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
		tab, err := gated(ctx, task, req)
		if err == nil && req.Function == "huge" {
			tab.Rows[0][0] = types.NewString(huge)
		}
		return tab, err
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sibling := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "sibling"})
		sibling <- err
	}()
	<-entered // the sibling is in its handler, on the same connection

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, simlat.Free(), Request{System: "s", Function: "huge"})
	if err == nil || !strings.Contains(err.Error(), "exceeds the 64 MiB frame limit") || !strings.Contains(err.Error(), "rpc: result of") {
		t.Fatalf("oversized result: got %v, want the frame-limit error", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Errorf("oversized result surfaced as a transport failure: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("oversized result took %v to fail", d)
	}

	ch, _ := gates.Load("sibling")
	close(ch.(chan struct{}))
	if err := <-sibling; err != nil {
		t.Errorf("sibling on the same connection failed: %v", err)
	}
	if _, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "after"}); err != nil {
		t.Errorf("next call on the same client failed: %v", err)
	}

	// Client side: a request too large to frame is refused before anything
	// is written, as a plain error: the connection stays usable.
	_, err = c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "f", Args: []types.Value{types.NewString(huge)}})
	if err == nil || !strings.Contains(err.Error(), "rpc: request of") || errors.Is(err, ErrTransport) {
		t.Errorf("oversized request: got %v, want a plain frame-limit error", err)
	}
	if _, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "after"}); err != nil {
		t.Errorf("call after the refused request failed: %v", err)
	}
}

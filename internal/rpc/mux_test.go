package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
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
// that call — the connection and subsequent calls stay healthy, unlike the
// gob transport where cancellation kills the stream.
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

// startLegacyGobServer runs a minimal replica of the pre-framed server: a
// bare gob decode/encode loop with no knowledge of the magic preamble.
// Reading the preamble fails gob decoding, so the connection drops —
// exactly how an old binary treats a framed hello.
func startLegacyGobServer(t *testing.T) net.Addr {
	t.Helper()
	RegisterWireTypes()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				dec := gob.NewDecoder(conn)
				enc := gob.NewEncoder(conn)
				for {
					var wreq wireRequest
					if err := dec.Decode(&wreq); err != nil {
						return
					}
					tab, _ := echoHandler(context.Background(), simlat.Free(),
						Request{System: wreq.System, Function: wreq.Function})
					var wres wireResponse
					wres.Columns, wres.Rows = toWireTable(tab)
					if err := enc.Encode(&wres); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr()
}

// TestDialMuxFallsBackToGob: against a server that predates the framed
// protocol, DialMux transparently downgrades and the call still works.
func TestDialMuxFallsBackToGob(t *testing.T) {
	addr := startLegacyGobServer(t)
	c, err := DialMux(addr.String(), WithHandshakeTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*muxClient); ok {
		t.Fatal("DialMux against a legacy server returned a mux client")
	}
	tab, err := c.Call(context.Background(), simlat.Free(), Request{System: "stock", Function: "Legacy"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1].Str() != "Legacy" {
		t.Errorf("echo = %v", tab.Rows[0])
	}
}

// TestDialMuxWithoutFallback: the strict variant refuses the downgrade and
// surfaces the handshake failure as a transport error.
func TestDialMuxWithoutFallback(t *testing.T) {
	addr := startLegacyGobServer(t)
	c, err := DialMux(addr.String(), WithoutFallback(), WithHandshakeTimeout(2*time.Second))
	if err == nil {
		c.Close()
		t.Fatal("DialMux(WithoutFallback) succeeded against a legacy server")
	}
	if !errors.Is(err, ErrTransport) {
		t.Errorf("handshake failure = %v, want ErrTransport", err)
	}
}

// TestFramedAndGobClientsShareListener: one listener serves a legacy gob
// client and a framed client side by side — negotiation is per connection.
func TestFramedAndGobClientsShareListener(t *testing.T) {
	srv := NewServer(echoHandler)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	legacy, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	framed, err := DialMux(addr.String(), WithoutFallback())
	if err != nil {
		t.Fatal(err)
	}
	defer framed.Close()
	for name, c := range map[string]Client{"gob": legacy, "framed": framed} {
		tab, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: name})
		if err != nil {
			t.Fatalf("%s client: %v", name, err)
		}
		if tab.Rows[0][1].Str() != name {
			t.Errorf("%s echo = %v", name, tab.Rows[0])
		}
	}
}

// TestMuxSessionQuotaRejectionTyped: a handshake the server answers with a
// quota rejection fails typed — and does NOT fall back to gob, since the
// server did speak the framed protocol.
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
	// Same tenant, second session: refused at the handshake, typed, no
	// fallback even though fallback is enabled.
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
	c, err := DialMux(addr.String(), WithoutFallback())
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
	// is written, as a plain error — a Pool must not retire the connection.
	_, err = c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "f", Args: []types.Value{types.NewString(huge)}})
	if err == nil || !strings.Contains(err.Error(), "rpc: request of") || errors.Is(err, ErrTransport) {
		t.Errorf("oversized request: got %v, want a plain frame-limit error", err)
	}
	if _, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "after"}); err != nil {
		t.Errorf("call after the refused request failed: %v", err)
	}
}

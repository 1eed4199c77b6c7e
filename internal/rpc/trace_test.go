package rpc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// tracedEchoHandler opens a span on the server-provided task, so a traced
// request produces handler-level spans under the transport's rpc.serve.
func tracedEchoHandler(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
	sp := obs.StartSpan(task, "handler.work", obs.Attr{Key: "fn", Value: req.Function})
	defer sp.End(task)
	return echoHandler(ctx, task, req)
}

func TestTracedTCPCallGraftsServerSpans(t *testing.T) {
	srv := NewServer(tracedEchoHandler)
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
	mc := c.(MetaCaller)

	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "client")
	_, meta, err := mc.CallMeta(context.Background(), task, Request{System: "s", Function: "f"})
	root := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := meta[obs.MetaTraceFragment]; ok {
		t.Error("fragment key must be consumed by the transport after grafting")
	}
	rendered := obs.Render(root)
	for _, want := range []string{"client", "rpc.call", "rpc.serve", "handler.work"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("grafted tree lacks %q:\n%s", want, rendered)
		}
	}
	// Linkage: client -> rpc.call -> rpc.serve -> handler.work.
	call := root.Children()
	if len(call) != 1 || call[0].Name() != "rpc.call" {
		t.Fatalf("client children: %v", call)
	}
	serve := call[0].Children()
	if len(serve) != 1 || serve[0].Name() != "rpc.serve" {
		t.Fatalf("rpc.call children: %v", serve)
	}
	if kids := serve[0].Children(); len(kids) != 1 || kids[0].Name() != "handler.work" {
		t.Fatalf("rpc.serve children: %v", kids)
	}
	// The whole tree shares the client's trace ID.
	if root.TraceID() == "" {
		t.Error("trace ID missing on the traced call")
	}

	// Untraced call over the same client: no fragment, no trace keys.
	_, meta, err = mc.CallMeta(context.Background(), nil, Request{Function: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := meta[obs.MetaTraceFragment]; ok {
		t.Error("untraced call received a fragment")
	}
}

// TestUndecodableFragmentSetsFragmentError: a peer built before fragments
// travelled in the compact codec answers a traced call with a JSON
// fragment. The call still returns its table, and its rpc.call span names
// the decode error instead of dropping the fragment without a word.
func TestUndecodableFragmentSetsFragmentError(t *testing.T) {
	const fragment = `{"trace_id":"4bf92f3577b34da6","root":{"name":"rpc.serve","start_ns":0,"elapsed_ns":1000000}}`
	addr, _ := foreignPeer(t, func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.Discard(len(muxMagic)); err != nil {
			return
		}
		if _, err := readFrame(br); err != nil { // the hello
			return
		}
		if writeFrame(conn, encodeHelloAck(1, classGeneric, "")) != nil {
			return
		}
		p, err := readFrame(br)
		if err != nil {
			return
		}
		id, req, err := decodeFrameRequest(p)
		if err != nil {
			return
		}
		tab, _ := echoHandler(context.Background(), simlat.Free(), Request{System: req.system, Function: req.function, Args: req.args})
		rep := &reply{table: tab, meta: map[string]string{obs.MetaTraceFragment: fragment}}
		if writeFrame(conn, encodeFrameResponse(id, rep)) != nil {
			return
		}
		io.Copy(io.Discard, br) // until the client hangs up
	})
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "client")
	res, meta, err := c.(MetaCaller).CallMeta(context.Background(), task, Request{System: "s", Function: "f"})
	root := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][1].Str() != "f" {
		t.Errorf("table = %v, want the echo row", res)
	}
	if _, ok := meta[obs.MetaTraceFragment]; ok {
		t.Error("fragment key must be consumed by the transport")
	}
	call := root.Children()
	if len(call) != 1 || call[0].Name() != "rpc.call" || len(call[0].Children()) != 0 {
		t.Fatalf("want one rpc.call without a graft:\n%s", obs.Render(root))
	}
	var reason string
	for _, a := range call[0].Attrs() {
		if a.Key == "fragment_error" {
			reason = a.Value
		}
	}
	if _, want := obs.DecodeTrace([]byte(fragment)); want == nil || reason != want.Error() {
		t.Errorf("rpc.call fragment_error = %q, want the decode error %v", reason, want)
	}
}

func TestTracedErrorCarriesErrorAttr(t *testing.T) {
	srv := NewServer(tracedEchoHandler)
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

	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "client")
	_, _, callErr := c.(MetaCaller).CallMeta(context.Background(), task, Request{Function: "fail"})
	root := tr.Finish()
	if callErr == nil {
		t.Fatal("error not propagated")
	}
	rendered := obs.Render(root)
	if !strings.Contains(rendered, "error=deliberate failure") {
		t.Errorf("error attr missing:\n%s", rendered)
	}
	if !strings.Contains(rendered, "rpc.serve") {
		t.Errorf("server fragment must ride the error response:\n%s", rendered)
	}
}

// TestOversizedFragmentArrivesPruned: a handler tree whose encoding is over
// the inline cap still travels inline, cut to the deepest level that fits,
// with pruned=children on the spans whose children were dropped.
func TestOversizedFragmentArrivesPruned(t *testing.T) {
	// 30 groups of 100 spans, each with an attribute of its own: about
	// 350 KB encoded, while the groups alone fit in a few hundred bytes.
	srv := NewServer(func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
		for g := 0; g < 30; g++ {
			group := obs.StartSpan(task, "group")
			for i := 0; i < 100; i++ {
				sp := obs.StartSpan(task, "bulk", obs.Attr{Key: "pad", Value: fmt.Sprintf("%04d%s", g*100+i, strings.Repeat("p", 100))})
				sp.End(task)
			}
			group.End(task)
		}
		return echoHandler(ctx, task, req)
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

	task := simlat.NewVirtualTask()
	tr := obs.Trace(task, "client")
	_, meta, err := c.(MetaCaller).CallMeta(context.Background(), task, Request{Function: "f"})
	root := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := meta[obs.MetaTraceFragment]; ok {
		t.Error("fragment key must be consumed by the transport after grafting")
	}
	call := root.Children()
	if len(call) != 1 || len(call[0].Children()) != 1 || call[0].Children()[0].Name() != "rpc.serve" {
		t.Fatalf("no rpc.serve grafted under rpc.call:\n%s", obs.Render(root))
	}
	// The graft lies at the client's instant 0, so re-encoding it gives the
	// bytes that travelled.
	serve := call[0].Children()[0]
	if enc, _ := obs.EncodeTrace(serve, 0); len(enc) > obs.MaxInlineFragmentBytes {
		t.Errorf("fragment of %d bytes over the %d-byte cap", len(enc), obs.MaxInlineFragmentBytes)
	}
	groups := serve.Children()
	if len(groups) != 30 {
		t.Fatalf("rpc.serve kept %d children, want the 30 groups", len(groups))
	}
	for _, g := range groups {
		if len(g.Children()) != 0 || !strings.Contains(obs.Render(g), "pruned=children") {
			t.Fatalf("group not cut with pruned=children:\n%s", obs.Render(g))
		}
	}
}

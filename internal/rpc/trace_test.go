package rpc

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

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

func TestOversizedFragmentGoesToSink(t *testing.T) {
	// Handler builds a span tree whose encoding exceeds the inline cap.
	srv := NewServer(func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
		for i := 0; i < 3000; i++ {
			sp := obs.StartSpan(task, "bulk", obs.Attr{Key: "pad", Value: strings.Repeat("p", 100)})
			sp.End(task)
		}
		return echoHandler(ctx, task, req)
	})
	var mu sync.Mutex
	var pushed []*obs.Fragment
	srv.SetTraceSink(func(f *obs.Fragment) {
		mu.Lock()
		pushed = append(pushed, f)
		mu.Unlock()
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
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := meta[obs.MetaTraceFragment]; ok {
		t.Error("oversized fragment shipped inline")
	}
	if meta[obs.MetaTracePushed] == "" {
		t.Error("pushed trace ID not announced")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(pushed)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(pushed) != 1 || pushed[0].Root == nil || pushed[0].Root.Name != "rpc.serve" {
		t.Fatalf("sink did not receive the fragment: %v", pushed)
	}
	if pushed[0].TraceID != meta[obs.MetaTracePushed] {
		t.Error("pushed fragment trace ID mismatch")
	}
}

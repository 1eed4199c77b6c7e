package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func echoHandler(_ context.Context, task *simlat.Task, req Request) (*types.Table, error) {
	if req.Function == "fail" {
		return nil, errors.New("deliberate failure")
	}
	task.Spend(simlat.PaperMS)
	tab := types.NewTable(types.Schema{
		{Name: "System", Type: types.VarChar},
		{Name: "Function", Type: types.VarChar},
		{Name: "NArgs", Type: types.Integer},
	})
	tab.MustAppend(types.Row{
		types.NewString(req.System),
		types.NewString(req.Function),
		types.NewInt(int64(len(req.Args))),
	})
	return tab, nil
}

func TestInProcCall(t *testing.T) {
	c := NewInProc(echoHandler)
	defer c.Close()
	task := simlat.NewVirtualTask()
	tab, err := c.Call(context.Background(), task, Request{System: "stock", Function: "GetQuality", Args: []types.Value{types.NewInt(7)}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0].Str() != "stock" || tab.Rows[0][2].Int() != 1 {
		t.Errorf("echo = %v", tab.Rows[0])
	}
	// In-proc callee charges the caller's meter.
	if task.Elapsed() != simlat.PaperMS {
		t.Errorf("task elapsed = %v", task.Elapsed())
	}
	if _, err := c.Call(context.Background(), task, Request{Function: "fail"}); err == nil {
		t.Error("handler error not propagated")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv := NewServer(echoHandler)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == nil {
		t.Error("Addr returned nil after Listen")
	}

	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	args := []types.Value{types.NewInt(1), types.NewString("x"), types.NewFloat(2.5), types.NewBool(true), types.Null}
	tab, err := c.Call(context.Background(), nil, Request{System: "purchasing", Function: "DecidePurchase", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1].Str() != "DecidePurchase" || tab.Rows[0][2].Int() != 5 {
		t.Errorf("echo over TCP = %v", tab.Rows[0])
	}
	if _, err := c.Call(context.Background(), nil, Request{Function: "fail"}); err == nil || err.Error() != "deliberate failure" {
		t.Errorf("remote error = %v", err)
	}
	// The connection survives an application-level error.
	if _, err := c.Call(context.Background(), nil, Request{Function: "ok"}); err != nil {
		t.Errorf("call after error: %v", err)
	}
}

func TestTCPValueFidelity(t *testing.T) {
	var got []types.Value
	srv := NewServer(func(_ context.Context, _ *simlat.Task, req Request) (*types.Table, error) {
		got = req.Args
		tab := types.NewTable(types.Schema{
			{Name: "I", Type: types.BigInt},
			{Name: "F", Type: types.Double},
			{Name: "S", Type: types.VarCharN(10)},
			{Name: "B", Type: types.Boolean},
			{Name: "N", Type: types.Integer},
		})
		tab.MustAppend(types.Row{
			types.NewInt(-42), types.NewFloat(3.25), types.NewString("päper"), types.NewBool(false), types.Null,
		})
		return tab, nil
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

	sent := []types.Value{types.NewInt(9), types.Null, types.NewString("it's")}
	tab, err := c.Call(context.Background(), nil, Request{Function: "f", Args: sent})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[0].Equal(types.NewInt(9)) || !got[1].IsNull() || got[2].Str() != "it's" {
		t.Errorf("server received %v", got)
	}
	r := tab.Rows[0]
	if r[0].Int() != -42 || r[1].Float() != 3.25 || r[2].Str() != "päper" || r[3].Bool() || !r[4].IsNull() {
		t.Errorf("row fidelity: %v", r)
	}
	if tab.Schema[2].Type != types.VarCharN(10) {
		t.Errorf("schema fidelity: %v", tab.Schema)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv := NewServer(echoHandler)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialMux(addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				tab, err := c.Call(context.Background(), nil, Request{System: fmt.Sprintf("sys%d", g), Function: "f"})
				if err != nil {
					errs <- err
					return
				}
				if tab.Rows[0][0].Str() != fmt.Sprintf("sys%d", g) {
					errs <- fmt.Errorf("cross-talk: %v", tab.Rows[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(echoHandler)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialMux("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port should fail")
	}
}

func metaEchoHandler(_ context.Context, task *simlat.Task, req Request) (*types.Table, map[string]string, error) {
	tab, err := echoHandler(context.Background(), task, req)
	if err != nil {
		return nil, map[string]string{"failed": "yes"}, err
	}
	return tab, map[string]string{"fn": req.Function}, nil
}

func TestCallMetaOverTCP(t *testing.T) {
	srv := NewServerMeta(metaEchoHandler)
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
	mc, ok := c.(MetaCaller)
	if !ok {
		t.Fatal("tcp client does not implement MetaCaller")
	}
	tab, meta, err := mc.CallMeta(context.Background(), nil, Request{System: "s", Function: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1].Str() != "f" || meta["fn"] != "f" {
		t.Errorf("meta over TCP = %v / %v", tab.Rows[0], meta)
	}
	// Metadata rides along error responses too.
	if _, meta, err := mc.CallMeta(context.Background(), nil, Request{Function: "fail"}); err == nil || meta["failed"] != "yes" {
		t.Errorf("error meta = %v, err = %v", meta, err)
	}
	// Plain Call still works against a meta server and drops the map.
	if _, err := c.Call(context.Background(), nil, Request{Function: "f"}); err != nil {
		t.Errorf("plain call on meta server: %v", err)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	srv := NewServer(func(_ context.Context, task *simlat.Task, req Request) (*types.Table, error) {
		close(started)
		<-release
		return echoHandler(context.Background(), task, req)
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		tab *types.Table
		err error
	}
	done := make(chan result, 1)
	go func() {
		tab, err := c.Call(context.Background(), nil, Request{Function: "slow"})
		done <- result{tab, err}
	}()
	<-started
	// Release the handler once shutdown is underway; the grace period must
	// let the response reach the client before the connection is severed.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight call lost during graceful shutdown: %v", r.err)
	}
	if r.tab.Rows[0][1].Str() != "slow" {
		t.Errorf("drained response = %v", r.tab.Rows[0])
	}
	// New connections are refused after shutdown.
	if _, err := DialMux(addr.String()); err == nil {
		t.Error("dial succeeded after shutdown")
	}
}

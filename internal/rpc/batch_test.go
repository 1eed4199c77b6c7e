package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// batchEchoHandler answers each row with a one-row table (Function, Arg0).
func batchEchoHandler(calls *atomic.Int64) BatchHandler {
	return func(_ context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error) {
		if calls != nil {
			calls.Add(1)
		}
		if req.Function == "fail" {
			return nil, errors.New("deliberate batch failure")
		}
		out := make([]*types.Table, len(req.Rows))
		for i, row := range req.Rows {
			tab := types.NewTable(types.Schema{
				{Name: "Function", Type: types.VarChar},
				{Name: "Arg0", Type: types.Integer},
			})
			arg := types.Null
			if len(row) > 0 {
				arg = row[0]
			}
			tab.MustAppend(types.Row{types.NewString(req.Function), arg})
			out[i] = tab
		}
		return out, nil
	}
}

func batchRows(n int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i))}
	}
	return rows
}

func TestCallBatchInProcNative(t *testing.T) {
	var calls atomic.Int64
	c := NewInProcBatch(echoHandler, batchEchoHandler(&calls))
	defer c.Close()
	tabs, err := CallBatch(context.Background(), simlat.NewVirtualTask(), c,
		BatchRequest{System: "stock", Function: "GetQuality", Rows: batchRows(5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 5 {
		t.Fatalf("got %d tables, want 5", len(tabs))
	}
	for i, tab := range tabs {
		if tab.Rows[0][1].Int() != int64(i) {
			t.Errorf("row %d echoed arg %v", i, tab.Rows[0][1])
		}
	}
	if calls.Load() != 1 {
		t.Errorf("batch handler invoked %d times, want 1", calls.Load())
	}
}

func TestCallBatchInProcFallsBackPerRow(t *testing.T) {
	c := NewInProc(echoHandler) // no batch handler installed
	defer c.Close()
	tabs, err := CallBatch(context.Background(), simlat.NewVirtualTask(), c,
		BatchRequest{System: "stock", Function: "GetQuality", Rows: batchRows(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("got %d tables, want 3", len(tabs))
	}
	for _, tab := range tabs {
		if tab.Rows[0][2].Int() != 1 {
			t.Errorf("fallback row shape = %v", tab.Rows[0])
		}
	}
}

func TestCallBatchOverTCP(t *testing.T) {
	var calls atomic.Int64
	srv := NewServer(echoHandler)
	srv.SetBatchHandler(batchEchoHandler(&calls))
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
	tabs, err := CallBatch(context.Background(), simlat.NewVirtualTask(), c,
		BatchRequest{System: "stock", Function: "GetQuality", Rows: batchRows(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("got %d tables, want 4", len(tabs))
	}
	for i, tab := range tabs {
		if tab.Rows[0][0].Str() != "GetQuality" || tab.Rows[0][1].Int() != int64(i) {
			t.Errorf("table %d = %v", i, tab.Rows[0])
		}
	}
	if calls.Load() != 1 {
		t.Errorf("server batch handler invoked %d times, want 1 (one wire request)", calls.Load())
	}
	// Batch errors propagate.
	if _, err := CallBatch(context.Background(), simlat.NewVirtualTask(), c,
		BatchRequest{Function: "fail", Rows: batchRows(2)}); err == nil {
		t.Error("batch handler error not propagated over TCP")
	}
	// Single-row calls still work on the same connection.
	tab, err := c.Call(context.Background(), simlat.NewVirtualTask(),
		Request{System: "stock", Function: "GetQuality", Args: []types.Value{types.NewInt(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][2].Int() != 1 {
		t.Errorf("single-row after batch = %v", tab.Rows[0])
	}
}

func TestCallBatchOverTCPServerFallback(t *testing.T) {
	srv := NewServer(echoHandler) // row handler only
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
	tabs, err := CallBatch(context.Background(), simlat.NewVirtualTask(), c,
		BatchRequest{System: "stock", Function: "GetQuality", Rows: batchRows(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("got %d tables, want 3", len(tabs))
	}
}

func TestGuardCallBatch(t *testing.T) {
	var calls atomic.Int64
	inner := NewInProcBatch(echoHandler, batchEchoHandler(&calls))
	g := Guard(inner, resil.NewExecutor(resil.RetryPolicy{MaxAttempts: 2}, resil.BreakerPolicy{}))
	tabs, err := CallBatch(context.Background(), simlat.NewVirtualTask(), g,
		BatchRequest{System: "stock", Function: "GetQuality", Rows: batchRows(6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 6 {
		t.Fatalf("got %d tables, want 6", len(tabs))
	}
	if calls.Load() != 1 {
		t.Errorf("handler invoked %d times, want 1", calls.Load())
	}
	if _, err := CallBatch(context.Background(), simlat.NewVirtualTask(), g,
		BatchRequest{Function: "fail", Rows: batchRows(2)}); err == nil {
		t.Error("guarded batch error not propagated")
	}
}

// flakyBatchClient fails the first CallBatch with a transient error, then
// delegates.
type flakyBatchClient struct {
	inner  Client
	failed atomic.Bool
}

func (f *flakyBatchClient) Call(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
	return f.inner.Call(ctx, task, req)
}
func (f *flakyBatchClient) CallBatch(ctx context.Context, task *simlat.Task, req BatchRequest) ([]*types.Table, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, &resil.AppSysError{System: req.System, Transient: true, Err: errors.New("transient blip")}
	}
	return CallBatch(ctx, task, f.inner, req)
}
func (f *flakyBatchClient) Close() error { return f.inner.Close() }

func TestGuardCallBatchRetriesWholeBatch(t *testing.T) {
	flaky := &flakyBatchClient{inner: NewInProcBatch(echoHandler, batchEchoHandler(nil))}
	g := Guard(flaky, resil.NewExecutor(resil.RetryPolicy{MaxAttempts: 3}, resil.BreakerPolicy{}))
	tabs, err := CallBatch(context.Background(), simlat.NewVirtualTask(), g,
		BatchRequest{System: "stock", Function: "GetQuality", Rows: batchRows(4)})
	if err != nil {
		t.Fatalf("retry did not recover the batch: %v", err)
	}
	if len(tabs) != 4 {
		t.Fatalf("got %d tables, want 4", len(tabs))
	}
}

func TestFaultClientCallBatch(t *testing.T) {
	inj := resil.NewInjector(1)
	inj.Plan("stock", resil.FaultPlan{Flap: []bool{true}})
	c := WithFaults(NewInProcBatch(echoHandler, batchEchoHandler(nil)), inj)
	if _, err := CallBatch(context.Background(), simlat.NewVirtualTask(), c,
		BatchRequest{System: "stock", Function: "GetQuality", Rows: batchRows(2)}); err == nil {
		t.Error("injected fault did not fail the batch")
	}
}

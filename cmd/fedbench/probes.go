package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"

	"fedwf/internal/fdbs"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// appCall is one request the server sent to an application system.
type appCall struct {
	system, function string
	rows             [][]types.Value
	batch            bool
}

// recorder is the application-system client of the traced server: it
// forwards to the in-process client and, while armed, notes each request
// so the ladder can replay it against the appsys layer alone.
type recorder struct {
	inner rpc.Client
	mu    sync.Mutex
	armed bool
	calls []appCall
}

func (r *recorder) note(c appCall) {
	r.mu.Lock()
	if r.armed {
		r.calls = append(r.calls, c)
	}
	r.mu.Unlock()
}

func (r *recorder) Call(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, error) {
	r.note(appCall{system: req.System, function: req.Function, rows: [][]types.Value{req.Args}})
	return r.inner.Call(ctx, task, req)
}

func (r *recorder) CallBatch(ctx context.Context, task *simlat.Task, req rpc.BatchRequest) ([]*types.Table, error) {
	r.note(appCall{system: req.System, function: req.Function, rows: req.Rows, batch: true})
	return rpc.CallBatch(ctx, task, r.inner, req)
}

func (r *recorder) Close() error { return r.inner.Close() }

// record runs f with the recorder armed and returns what it noted.
func (r *recorder) record(f func() error) ([]appCall, error) {
	r.mu.Lock()
	r.armed, r.calls = true, nil
	r.mu.Unlock()
	err := f()
	r.mu.Lock()
	calls := r.calls
	r.armed, r.calls = false, nil
	r.mu.Unlock()
	return calls, err
}

// relay forwards one TCP connection to the server and counts the bytes of
// both directions: the wire size of a statement, seen from outside.
type relay struct {
	ln    net.Listener
	bytes atomic.Int64
	wg    sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		down, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", target)
		if err != nil {
			down.Close()
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.pipe(down, up)
		}()
		r.pipe(up, down)
	}()
	return r, nil
}

// pipe copies src to dst until either end closes, then closes both so the
// opposite direction ends too.
func (r *relay) pipe(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// close ends the relay; the client dialled through it must be closed first.
func (r *relay) close() {
	r.ln.Close()
	r.wg.Wait()
}

// echo is a bare rpc server whose handler answers every request with the
// table and metadata it was last handed: the codec, the mux and admission
// with no fdbs behind them.
type echo struct {
	srv    *rpc.Server
	client rpc.Client
	reply  atomic.Pointer[fdbs.ExecResult]
}

func startEcho() (*echo, error) {
	e := &echo{}
	e.srv = rpc.NewServerMeta(func(context.Context, *simlat.Task, rpc.Request) (*types.Table, map[string]string, error) {
		r := e.reply.Load()
		return r.Table, r.Meta, nil
	})
	e.srv.SetAdmission(rpc.NewAdmission(rpc.AdmissionPolicy{}, nil, rpc.AdmissionObserver{}))
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.client, err = rpc.DialMux(addr.String(), rpc.WithoutFallback())
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	return e, nil
}

func (e *echo) call(ctx context.Context, sql string) error {
	_, err := e.client.Call(ctx, nil, rpc.Request{Function: "exec", Args: []types.Value{types.NewString(sql)}})
	return err
}

func (e *echo) close() {
	e.client.Close()
	e.srv.Close()
}

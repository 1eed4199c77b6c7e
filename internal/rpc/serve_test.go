package rpc

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// serving counts the goroutines of the server's connection loops (each
// connection's reader and its workers); idle counts the workers parked
// waiting for their connection's next request.
func serving() (all, idle int) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "(*Server).serveConn") && !strings.Contains(g, "(*Server).serveFramed") {
			continue
		}
		all++
		if strings.Contains(g, "[chan receive") {
			idle++
		}
	}
	return all, idle
}

// waitFor polls cond until it holds or five seconds pass, then reports
// what it last saw.
func waitFor(t *testing.T, what string, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, saw := cond()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: still %s after 5s", what, saw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitIdleWorkers(t *testing.T, want int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("waiting for %d idle workers", want), func() (bool, string) {
		_, n := serving()
		return n == want, fmt.Sprintf("%d idle", n)
	})
}

// waitServingGone waits until no connection loop or worker is left and the
// goroutine count is back at (or, as earlier tests' goroutines finish
// exiting, below) before.
func waitServingGone(t *testing.T, before int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("waiting for the serving goroutines to exit and the count to return to %d", before), func() (bool, string) {
		all, _ := serving()
		n := runtime.NumGoroutine()
		return all == 0 && n <= before, fmt.Sprintf("%d serving of %d goroutines", all, n)
	})
}

// closeServer closes srv, which waits for every connection's workers, and
// fails the test if that takes more than five seconds.
func closeServer(t *testing.T, srv *Server) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Error("Server.Close did not return within 5s")
	}
}

// TestNoHeadOfLineBlockingOnReusedWorkers: while one request is parked in
// its handler, a second request on the same connection completes. The
// second round runs on the two workers the first one left idle, and
// starts no third.
func TestNoHeadOfLineBlockingOnReusedWorkers(t *testing.T) {
	var gates sync.Map
	entered := make(chan string, 2)
	srv := NewServer(gatedHandler(&gates, entered))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, srv)
	c, err := DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for round := 1; round <= 2; round++ {
		gate := make(chan struct{})
		gates.Store("park", gate)
		release := sync.OnceFunc(func() { close(gate) })
		defer release() // a failing round must not leave its handler parked
		parked := make(chan error, 1)
		go func() {
			_, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "park"})
			parked <- err
		}()
		if got := <-entered; got != "park" {
			t.Fatalf("round %d: handler entered %q, want park", round, got)
		}
		// The parked request holds its worker; this one must not wait.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		tab, err := c.Call(ctx, simlat.Free(), Request{System: "s", Function: "free"})
		cancel()
		if err != nil || tab.Rows[0][1].Str() != "free" {
			t.Fatalf("round %d: call behind a parked request = %v, %v", round, tab, err)
		}
		<-entered
		select {
		case err := <-parked:
			t.Fatalf("round %d: parked request returned early: %v", round, err)
		default:
		}
		release()
		if err := <-parked; err != nil {
			t.Fatalf("round %d: parked request: %v", round, err)
		}
		waitIdleWorkers(t, 2)
	}
}

// TestWorkersExitWithTheirConnection is the serve loop's leak check. A
// burst of 64 requests in flight at once leaves exactly 64 workers, all of
// which exit with the connection: after the client's Close, and after the
// server's Close while they sit idle.
func TestWorkersExitWithTheirConnection(t *testing.T) {
	const burst = 64
	var (
		entered sync.WaitGroup
		mu      sync.Mutex
		gate    chan struct{} // non-nil: handlers report entry and wait on it
	)
	h := func(ctx context.Context, task *simlat.Task, req Request) (*types.Table, error) {
		mu.Lock()
		g := gate
		mu.Unlock()
		if g != nil {
			entered.Done()
			<-g
		}
		return echoHandler(ctx, task, req)
	}
	// fill pipelines a burst on c, holding every request in its handler
	// until all are in flight, and returns once all are answered.
	fill := func(t *testing.T, c Client) {
		t.Helper()
		g := make(chan struct{})
		entered.Add(burst)
		mu.Lock()
		gate = g
		mu.Unlock()
		errs := make(chan error, burst)
		for i := 0; i < burst; i++ {
			go func() {
				_, err := c.Call(context.Background(), simlat.Free(), Request{System: "s", Function: "f"})
				errs <- err
			}()
		}
		entered.Wait()
		mu.Lock()
		gate = nil
		mu.Unlock()
		close(g)
		for i := 0; i < burst; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("ClientClose", func(t *testing.T) {
		srv := NewServer(h)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer closeServer(t, srv)
		before := runtime.NumGoroutine()
		c, err := DialMux(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		fill(t, c)
		waitIdleWorkers(t, burst)
		c.Close()
		waitServingGone(t, before)
	})

	t.Run("ServerCloseWhileIdle", func(t *testing.T) {
		before := runtime.NumGoroutine()
		srv := NewServer(h)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialMux(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fill(t, c)
		waitIdleWorkers(t, burst)
		closeServer(t, srv)
		waitServingGone(t, before)
	})
}

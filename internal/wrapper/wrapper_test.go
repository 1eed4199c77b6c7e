package wrapper

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwf/internal/engine"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func remoteEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New()
	s := eng.NewSession()
	if _, err := s.ExecScriptContext(context.Background(), `
		CREATE TABLE stock (CompNo INT, Qty INT, Loc VARCHAR(10));
		INSERT INTO stock VALUES (1, 100, 'A'), (2, 5, 'B'), (3, 42, 'A');
	`); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestInProcFederation(t *testing.T) {
	remote := remoteEngine(t)
	local := engine.New()
	reg := NewRegistry(simlat.DefaultProfile())
	reg.AddInProc("warehouse", remote)
	if err := reg.Link(local); err != nil {
		t.Fatal(err)
	}

	s := local.NewSession()
	s.MustExecContext(context.Background(), "CREATE WRAPPER sqlwrapper")
	s.MustExecContext(context.Background(), "CREATE SERVER wh WRAPPER sqlwrapper OPTIONS (target 'warehouse')")
	s.MustExecContext(context.Background(), "CREATE NICKNAME rstock FOR wh.stock")

	tab, err := s.QueryContext(context.Background(), "SELECT CompNo, Qty FROM rstock WHERE Qty >= 42 ORDER BY CompNo")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 1 || tab.Rows[1][1].Int() != 42 {
		t.Errorf("federated result:\n%s", tab)
	}
	// Pushdown present in the plan.
	res := s.MustExecContext(context.Background(), "EXPLAIN SELECT CompNo FROM rstock WHERE Qty >= 42")
	if !strings.Contains(res.Table.String(), "RemoteScan") {
		t.Errorf("plan:\n%s", res.Table)
	}
}

func TestTCPFederation(t *testing.T) {
	remote := remoteEngine(t)
	srv := rpc.NewServer(NewRemoteHandler(remote))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := engine.New()
	reg := NewRegistry(simlat.DefaultProfile())
	if err := reg.Link(local); err != nil {
		t.Fatal(err)
	}
	s := local.NewSession()
	s.MustExecContext(context.Background(), "CREATE WRAPPER sqlwrapper")
	s.MustExecContext(context.Background(), "CREATE SERVER wh WRAPPER sqlwrapper OPTIONS (address '"+addr.String()+"')")
	s.MustExecContext(context.Background(), "CREATE NICKNAME rstock FOR wh.stock")

	tab, err := s.QueryContext(context.Background(), "SELECT COUNT(*) FROM rstock")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0].Int() != 3 {
		t.Errorf("remote count = %v", tab.Rows[0][0])
	}
	// Joining local and remote data.
	s.MustExecContext(context.Background(), "CREATE TABLE names (CompNo INT, Name VARCHAR(10))")
	s.MustExecContext(context.Background(), "INSERT INTO names VALUES (1, 'bolt'), (3, 'pin')")
	tab, err = s.QueryContext(context.Background(), "SELECT n.Name, r.Qty FROM names n, rstock r WHERE n.CompNo = r.CompNo ORDER BY n.Name")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.Rows[0][0].Str() != "bolt" || tab.Rows[0][1].Int() != 100 {
		t.Errorf("cross-source join:\n%s", tab)
	}
}

// TestTCPFederationRunsPushdownsConcurrently: two sessions push queries
// down through one address-dialled server at the same time. The remote
// handler holds each query until both have arrived, so the pair completes
// only if the shared connection carries them side by side.
func TestTCPFederationRunsPushdownsConcurrently(t *testing.T) {
	handler := NewRemoteHandler(remoteEngine(t))
	var arrived sync.WaitGroup
	arrived.Add(2)
	srv := rpc.NewServer(func(ctx context.Context, task *simlat.Task, req rpc.Request) (*types.Table, error) {
		if req.Function == fnQuery {
			arrived.Done()
			arrived.Wait()
		}
		return handler(ctx, task, req)
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := engine.New()
	if err := NewRegistry(simlat.DefaultProfile()).Link(local); err != nil {
		t.Fatal(err)
	}
	s := local.NewSession()
	s.MustExecContext(context.Background(), "CREATE WRAPPER sqlwrapper")
	s.MustExecContext(context.Background(), "CREATE SERVER wh WRAPPER sqlwrapper OPTIONS (address '"+addr.String()+"')")
	s.MustExecContext(context.Background(), "CREATE NICKNAME rstock FOR wh.stock")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	for _, loc := range []string{"A", "B"} {
		go func() {
			tab, err := local.NewSession().QueryContext(ctx, "SELECT COUNT(*) FROM rstock WHERE Loc = '"+loc+"'")
			if err == nil && tab.Rows[0][0].Int() == 0 {
				err = fmt.Errorf("location %s: no rows counted", loc)
			}
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("concurrent pushdown: %v", err)
		}
	}
}

func TestRMIHopCharging(t *testing.T) {
	remote := remoteEngine(t)
	local := engine.New()
	profile := simlat.DefaultProfile()
	reg := NewRegistry(profile)
	reg.AddInProc("warehouse", remote)
	if err := reg.Link(local); err != nil {
		t.Fatal(err)
	}
	s := local.NewSession()
	s.MustExecContext(context.Background(), "CREATE WRAPPER sqlwrapper")
	s.MustExecContext(context.Background(), "CREATE SERVER wh WRAPPER sqlwrapper OPTIONS (target 'warehouse', charge 'hops')")
	s.MustExecContext(context.Background(), "CREATE NICKNAME rstock FOR wh.stock")

	task := simlat.NewVirtualTask()
	s.SetTask(task)
	if _, err := s.QueryContext(context.Background(), "SELECT * FROM rstock"); err != nil {
		t.Fatal(err)
	}
	want := profile.RMICall + profile.RMIReturn
	if task.Elapsed() != want {
		t.Errorf("elapsed = %v, want %v", task.Elapsed(), want)
	}
}

func TestWrapperErrors(t *testing.T) {
	local := engine.New()
	reg := NewRegistry(simlat.DefaultProfile())
	if err := reg.Link(local); err != nil {
		t.Fatal(err)
	}
	s := local.NewSession()
	s.MustExecContext(context.Background(), "CREATE WRAPPER sqlwrapper")
	if _, err := s.ExecContext(context.Background(), "CREATE SERVER bad WRAPPER sqlwrapper OPTIONS (target 'nope')"); err == nil {
		t.Error("unknown in-process target accepted")
	}
	if _, err := s.ExecContext(context.Background(), "CREATE SERVER bad WRAPPER sqlwrapper"); err == nil {
		t.Error("missing options accepted")
	}
	if _, err := s.ExecContext(context.Background(), "CREATE SERVER bad WRAPPER sqlwrapper OPTIONS (address '127.0.0.1:1')"); err == nil {
		t.Error("dial failure not surfaced")
	}
	// Remote protocol errors.
	remote := remoteEngine(t)
	h := NewRemoteHandler(remote)
	if _, err := h(context.Background(), simlat.Free(), rpc.Request{Function: "nope"}); err == nil {
		t.Error("unknown protocol function accepted")
	}
	if _, err := h(context.Background(), simlat.Free(), rpc.Request{Function: "query", Args: []types.Value{types.NewString("DROP TABLE stock")}}); err == nil {
		t.Error("non-SELECT pushdown accepted")
	}
	if _, err := h(context.Background(), simlat.Free(), rpc.Request{Function: "query"}); err == nil {
		t.Error("missing query text accepted")
	}
	if _, err := h(context.Background(), simlat.Free(), rpc.Request{Function: "schema", Args: []types.Value{types.NewString("nope")}}); err == nil {
		t.Error("unknown remote table accepted")
	}
	srv := NewRemoteServer("x", rpc.NewInProc(h), simlat.DefaultProfile(), false)
	if _, err := srv.TableSchemaContext(context.Background(), "nope"); err != nil {
		// expected
	} else {
		t.Error("TableSchema for unknown table succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

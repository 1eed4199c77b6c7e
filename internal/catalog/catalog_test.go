package catalog

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

func TestTableLifecycle(t *testing.T) {
	cat := New()
	schema := types.Schema{{Name: "A", Type: types.Integer}}
	if _, err := cat.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("T", schema); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := cat.Table("t"); err != nil {
		t.Errorf("Table: %v", err)
	}
	if got := cat.Tables(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Tables = %v", got)
	}
	if err := cat.DropTable("t"); err != nil {
		t.Errorf("DropTable: %v", err)
	}
	if _, err := cat.Table("t"); err == nil {
		t.Error("dropped table still resolvable")
	}
}

func TestFuncRegistry(t *testing.T) {
	cat := New()
	fn := &GoFunc{
		FName:    "F",
		FReturns: types.Schema{{Name: "X", Type: types.Integer}},
		Fn: func(rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
			out := types.NewTable(types.Schema{{Name: "X", Type: types.Integer}})
			out.MustAppend(types.Row{types.NewInt(1)})
			return out, nil
		},
	}
	if err := cat.RegisterFunc(fn); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterFunc(fn); err == nil {
		t.Error("duplicate function accepted")
	}
	got, err := cat.Func("f")
	if err != nil || got.Name() != "F" {
		t.Errorf("Func = %v, %v", got, err)
	}
	if names := cat.Funcs(); len(names) != 1 || names[0] != "F" {
		t.Errorf("Funcs = %v", names)
	}
	if err := cat.DropFunc("F"); err != nil {
		t.Errorf("DropFunc: %v", err)
	}
	if err := cat.DropFunc("F"); err == nil {
		t.Error("double drop accepted")
	}
	if _, err := cat.Func("F"); err == nil {
		t.Error("dropped function resolvable")
	}
}

type stubServer struct {
	name   string
	schema types.Schema
	err    error
}

func (s *stubServer) Name() string { return s.name }
func (s *stubServer) TableSchemaContext(_ context.Context, remote string) (types.Schema, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.schema, nil
}
func (s *stubServer) QueryContext(_ context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, error) {
	return types.NewTable(s.schema), nil
}

func TestServersAndNicknames(t *testing.T) {
	cat := New()
	srv := &stubServer{name: "S1", schema: types.Schema{{Name: "A", Type: types.Integer}}}
	if err := cat.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddServer(srv); err == nil {
		t.Error("duplicate server accepted")
	}
	if got, err := cat.Server("s1"); err != nil || got.Name() != "S1" {
		t.Errorf("Server = %v, %v", got, err)
	}
	if _, err := cat.Server("nope"); err == nil {
		t.Error("unknown server resolvable")
	}
	if names := cat.Servers(); len(names) != 1 {
		t.Errorf("Servers = %v", names)
	}

	if err := cat.CreateNicknameContext(context.Background(), "nick", "S1", "remote_t"); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateNicknameContext(context.Background(), "nick", "S1", "remote_t"); err == nil {
		t.Error("duplicate nickname accepted")
	}
	n := cat.Nickname("NICK")
	if n == nil || n.Server != "S1" || n.Remote != "remote_t" || len(n.Schema) != 1 {
		t.Errorf("Nickname = %+v", n)
	}
	if cat.Nickname("none") != nil {
		t.Error("unknown nickname resolvable")
	}
	// Nickname may not shadow a base table, and vice versa.
	if _, err := cat.CreateTable("nick", types.Schema{{Name: "A", Type: types.Integer}}); err == nil {
		t.Error("table shadowing nickname accepted")
	}
	if _, err := cat.CreateTable("base", types.Schema{{Name: "A", Type: types.Integer}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateNicknameContext(context.Background(), "base", "S1", "remote_t"); err == nil {
		t.Error("nickname shadowing table accepted")
	}
	// Remote schema failure propagates.
	bad := &stubServer{name: "S2", err: errors.New("unreachable")}
	if err := cat.AddServer(bad); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateNicknameContext(context.Background(), "n2", "S2", "x"); err == nil {
		t.Error("remote schema failure swallowed")
	}
	if err := cat.CreateNicknameContext(context.Background(), "n3", "nosrv", "x"); err == nil {
		t.Error("nickname on unknown server accepted")
	}
}

func TestWrapperRegistry(t *testing.T) {
	cat := New()
	factory := func(serverName string, options map[string]string) (ForeignServer, error) {
		if options["fail"] == "yes" {
			return nil, errors.New("factory failure")
		}
		return &stubServer{name: serverName, schema: types.Schema{{Name: "A", Type: types.Integer}}}, nil
	}
	if err := cat.RegisterWrapper("w", factory); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterWrapper("W", factory); err == nil {
		t.Error("duplicate wrapper accepted")
	}
	if _, err := cat.Wrapper("w"); err != nil {
		t.Errorf("Wrapper: %v", err)
	}
	if _, err := cat.Wrapper("none"); err == nil {
		t.Error("unknown wrapper resolvable")
	}
	if err := cat.CreateServer("srv", "w", nil); err != nil {
		t.Errorf("CreateServer: %v", err)
	}
	if err := cat.CreateServer("srv2", "w", map[string]string{"fail": "yes"}); err == nil {
		t.Error("factory failure swallowed")
	}
	if err := cat.CreateServer("srv3", "none", nil); err == nil {
		t.Error("unknown wrapper in CREATE SERVER accepted")
	}
}

// stubRunner executes SQLFunc bodies against fixed data.
type stubRunner struct {
	body   *Body
	got    []types.Value
	result *types.Table
	err    error
}

func (r *stubRunner) RunBodyContext(_ context.Context, body *Body, bind []types.Value, task *simlat.Task) (*types.Table, error) {
	r.body, r.got = body, bind
	if r.err != nil {
		return nil, r.err
	}
	return r.result, nil
}

func TestSQLFuncInvoke(t *testing.T) {
	body, err := sqlparser.ParseSelect("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	result := types.NewTable(types.Schema{{Name: "raw", Type: types.Integer}})
	result.MustAppend(types.Row{types.NewInt(7)})
	runner := &stubRunner{result: result}

	// Around runs in place of every call that reaches the body, and sees
	// the body's outcome, failures included.
	var arounds int
	var lastErr error
	fn := NewSQLFunc("GetX", []types.Column{{Name: "P", Type: types.Integer}}, types.Schema{{Name: "X", Type: types.BigInt}}, body)
	fn.Around = func(task *simlat.Task, call SQLCall) (*types.Table, error) {
		arounds++
		out, err := call.Run()
		lastErr = err
		return out, err
	}
	out, err := fn.InvokeContext(context.Background(), runner, simlat.Free(), []types.Value{types.NewString("5")})
	if err != nil {
		t.Fatal(err)
	}
	if arounds != 1 || lastErr != nil {
		t.Errorf("Around ran %d times, saw %v", arounds, lastErr)
	}
	// The body declares the parameter under the function's name, and the
	// call binds its argument cast to the declared type.
	if runner.body != fn.Body || runner.body.Select != body {
		t.Error("the runner did not get the function's body")
	}
	if want := (Param{Corr: "GetX", Name: "P", Type: types.Integer}); len(fn.Body.Params) != 1 || fn.Body.Params[0] != want {
		t.Errorf("body params = %v, want [%v]", fn.Body.Params, want)
	}
	if len(runner.got) != 1 || runner.got[0].Kind() != types.KindInt || runner.got[0].Int() != 5 {
		t.Errorf("bound row = %v", runner.got)
	}
	// Result coerced to the declared schema.
	if out.Schema[0].Name != "X" || out.Rows[0][0].Int() != 7 {
		t.Errorf("result:\n%s", out)
	}

	if _, err := fn.InvokeContext(context.Background(), runner, simlat.Free(), nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := fn.InvokeContext(context.Background(), nil, simlat.Free(), []types.Value{types.NewInt(1)}); err == nil {
		t.Error("nil runner accepted")
	}
	if _, err := fn.InvokeContext(context.Background(), runner, simlat.Free(), []types.Value{types.NewString("xx")}); err == nil {
		t.Error("uncastable argument accepted")
	}
	runner.err = errors.New("body failure")
	arounds = 0
	if _, err := fn.InvokeContext(context.Background(), runner, simlat.Free(), []types.Value{types.NewInt(1)}); err == nil {
		t.Error("body failure swallowed")
	}
	if arounds != 1 || !errors.Is(lastErr, runner.err) {
		t.Errorf("Around ran %d times on a failing body, saw %v", arounds, lastErr)
	}
	// Arity mismatch between body result and declared schema.
	runner.err = nil
	wide := types.NewTable(types.Schema{
		{Name: "a", Type: types.Integer}, {Name: "b", Type: types.Integer},
	})
	runner.result = wide
	if _, err := fn.InvokeContext(context.Background(), runner, simlat.Free(), []types.Value{types.NewInt(1)}); err == nil {
		t.Error("column-count mismatch accepted")
	}
}

func TestGoFuncInvoke(t *testing.T) {
	fn := &GoFunc{
		FName:    "Mk",
		FParams:  []types.Column{{Name: "N", Type: types.Integer}},
		FReturns: types.Schema{{Name: "V", Type: types.VarCharN(3)}},
		Fn: func(rt QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
			out := types.NewTable(types.Schema{{Name: "raw", Type: types.VarChar}})
			out.MustAppend(types.Row{types.NewString(fmt.Sprintf("%05d", args[0].Int()))})
			return out, nil
		},
	}
	out, err := fn.InvokeContext(context.Background(), nil, simlat.Free(), []types.Value{types.NewString("42")})
	if err != nil {
		t.Fatal(err)
	}
	// VARCHAR(3) truncation applied by the declared schema.
	if out.Rows[0][0].Str() != "000" {
		t.Errorf("coerced result = %v", out.Rows[0][0])
	}
	if _, err := fn.InvokeContext(context.Background(), nil, simlat.Free(), nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := fn.InvokeContext(context.Background(), nil, simlat.Free(), []types.Value{types.NewString("x")}); err == nil {
		t.Error("uncastable argument accepted")
	}
	if fn.Name() != "Mk" || len(fn.Params()) != 1 || len(fn.Schema()) != 1 {
		t.Error("accessors")
	}
}

func TestViews(t *testing.T) {
	cat := New()
	q, err := sqlparser.ParseSelect("SELECT 1 AS one")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateView("v", q); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateView("V", q); err == nil {
		t.Error("duplicate view accepted")
	}
	if cat.View("v") != q {
		t.Error("View lookup failed")
	}
	if cat.View("none") != nil {
		t.Error("unknown view resolvable")
	}
	if got := cat.Views(); len(got) != 1 || got[0] != "v" {
		t.Errorf("Views = %v", got)
	}
	// Collisions with tables and nicknames in both directions.
	if _, err := cat.CreateTable("v", types.Schema{{Name: "A", Type: types.Integer}}); err == nil {
		t.Error("table shadowing view accepted")
	}
	if _, err := cat.CreateTable("t", types.Schema{{Name: "A", Type: types.Integer}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateView("t", q); err == nil {
		t.Error("view shadowing table accepted")
	}
	if err := cat.AddServer(&stubServer{name: "S9", schema: types.Schema{{Name: "A", Type: types.Integer}}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateNicknameContext(context.Background(), "nick9", "S9", "r"); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateView("nick9", q); err == nil {
		t.Error("view shadowing nickname accepted")
	}
	if err := cat.DropView("v"); err != nil {
		t.Errorf("DropView: %v", err)
	}
	if err := cat.DropView("v"); err == nil {
		t.Error("double drop accepted")
	}
}

// TestGoFuncAnswerIsNotWritten: a row of the body's answer that needs a
// cast reaches the caller as a cast copy and the body's table keeps its
// values; appending to the result of a conforming answer does not write
// into the spare capacity of the body's row slice. The same holds for a
// batch.
func TestGoFuncAnswerIsNotWritten(t *testing.T) {
	body := &types.Table{
		Schema: types.Schema{{Name: "raw", Type: types.Integer}},
		Rows:   make([]types.Row, 1, 4),
	}
	body.Rows[0] = types.Row{types.NewInt(7)}
	spare := body.Rows[:2]
	fn := &GoFunc{
		FName:    "Answer",
		FParams:  []types.Column{{Name: "N", Type: types.Integer}},
		FReturns: types.Schema{{Name: "V", Type: types.Integer}},
		FnCtx: func(_ context.Context, _ QueryRunner, _ *simlat.Task, args []types.Value) (*types.Table, error) {
			return body, nil
		},
		FnBatchCtx: func(_ context.Context, _ QueryRunner, _ *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
			out := make([]*types.Table, len(rows))
			for i := range out {
				out[i] = body
			}
			return out, nil
		},
	}
	args := []types.Value{types.NewInt(1)}
	invoke := map[string]func() (*types.Table, error){
		"row": func() (*types.Table, error) { return fn.InvokeContext(context.Background(), nil, simlat.Free(), args) },
		"batch": func() (*types.Table, error) {
			res, err := fn.InvokeBatch(context.Background(), nil, simlat.Free(), [][]types.Value{args, args})
			if err != nil {
				return nil, err
			}
			return res[1], nil
		},
	}
	for _, mode := range []string{"row", "batch"} {
		res, err := invoke[mode]()
		if err != nil {
			t.Fatal(err)
		}
		if res.Schema[0].Name != "V" || res.Rows[0][0].Int() != 7 {
			t.Errorf("%s: conforming answer = %v", mode, res)
		}
		res.Rows = append(res.Rows, types.Row{types.NewInt(8)})
		if spare[1] != nil || len(body.Rows) != 1 || body.Schema[0].Name != "raw" {
			t.Errorf("%s: appending to the result wrote into the body's table: %v", mode, spare)
		}
	}

	fn.FReturns = types.Schema{{Name: "V", Type: types.Double}}
	for _, mode := range []string{"row", "batch"} {
		res, err := invoke[mode]()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0]; got.Kind() != types.KindFloat || got.Float() != 7 {
			t.Errorf("%s: cast answer = %v, want 7 as DOUBLE", mode, got)
		}
		if got := body.Rows[0][0]; got.Kind() != types.KindInt {
			t.Errorf("%s: the body's row was cast in place: %v", mode, got)
		}
	}
}

// TestCoerceTablesIndependent: a batch body answers every row from one row
// slice, each answer's row slice left with the spare capacity of the rest,
// and a cast copies only the last row. The coerced answers, whose headers
// share one slice, must be independent: appending a row to one, or a cell
// to one of its rows, leaves every other as it was.
func TestCoerceTablesIndependent(t *testing.T) {
	raw := types.Schema{{Name: "raw", Type: types.Double}}
	fn := &GoFunc{
		FName:    "Chunk",
		FParams:  []types.Column{{Name: "N", Type: types.Integer}},
		FReturns: types.Schema{{Name: "V", Type: types.Double}},
		FnBatchCtx: func(_ context.Context, _ QueryRunner, _ *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
			all := make([]types.Row, len(rows))
			out := make([]*types.Table, len(rows))
			for i, args := range rows {
				v := types.NewFloat(float64(args[0].Int()))
				if i == len(rows)-1 {
					v = args[0] // an INTEGER: conforming casts and copies this row
				}
				all[i] = types.Row{v}
				out[i] = &types.Table{Schema: raw, Rows: all[i : i+1]}
			}
			return out, nil
		},
	}
	rows := make([][]types.Value, 8)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i))}
	}
	tabs, err := fn.InvokeBatch(context.Background(), nil, simlat.Free(), rows)
	if err != nil || len(tabs) != len(rows) {
		t.Fatalf("%d answers, %v", len(tabs), err)
	}
	want := make([]string, len(tabs))
	for i, tab := range tabs {
		if tab.Len() != 1 || tab.Rows[0][0].Kind() != types.KindFloat || tab.Rows[0][0].Float() != float64(i) {
			t.Fatalf("answer %d = %v", i, tab)
		}
		want[i] = tab.String()
	}
	for i, tab := range tabs {
		_ = append(tab.Rows, types.Row{types.NewString("appended")})
		for _, r := range tab.Rows {
			_ = append(r, types.NewString("appended"))
		}
		for j, other := range tabs {
			if got := other.String(); got != want[j] {
				t.Fatalf("appending to answer %d changed answer %d:\n%s\nwas:\n%s", i, j, got, want[j])
			}
		}
	}
}

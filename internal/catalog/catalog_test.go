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
	got    map[string]types.Value
	result *types.Table
	err    error
}

func (r *stubRunner) RunSelectContext(_ context.Context, sel *sqlparser.Select, params map[string]types.Value, task *simlat.Task) (*types.Table, error) {
	r.got = params
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

	var beforeRan, afterRan bool
	fn := &SQLFunc{
		FName:        "GetX",
		FParams:      []types.Column{{Name: "P", Type: types.Integer}},
		FReturns:     types.Schema{{Name: "X", Type: types.BigInt}},
		Body:         body,
		BeforeInvoke: func(task *simlat.Task) { beforeRan = true },
		AfterInvoke:  func(task *simlat.Task) { afterRan = true },
	}
	out, err := fn.InvokeContext(context.Background(), runner, simlat.Free(), []types.Value{types.NewString("5")})
	if err != nil {
		t.Fatal(err)
	}
	if !beforeRan || !afterRan {
		t.Error("hooks not invoked")
	}
	// Parameters bound bare and qualified, cast to declared type.
	if v := runner.got["p"]; v.Int() != 5 {
		t.Errorf("bare param = %v", v)
	}
	if v := runner.got["getx.p"]; v.Int() != 5 {
		t.Errorf("qualified param = %v", v)
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
	if _, err := fn.InvokeContext(context.Background(), runner, simlat.Free(), []types.Value{types.NewInt(1)}); err == nil {
		t.Error("body failure swallowed")
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

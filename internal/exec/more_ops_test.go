package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

func TestConcatOperator(t *testing.T) {
	a := &Values{Sch: intSchema("n"), Rows: intRows(1, 2)}
	b := &Values{Sch: intSchema("n"), Rows: intRows(3)}
	c := &Values{Sch: intSchema("n")}
	concat := &Concat{Inputs: []Operator{a, b, c}}
	tab := runAll(t, concat)
	if tab.Len() != 3 || tab.Rows[2][0].Int() != 3 {
		t.Errorf("concat:\n%s", tab)
	}
	// Reopen replays all inputs.
	tab = runAll(t, concat)
	if tab.Len() != 3 {
		t.Errorf("concat after reopen: %d rows", tab.Len())
	}
	if !strings.Contains(concat.Describe(), "3 inputs") || len(concat.Children()) != 3 {
		t.Error("Describe/Children")
	}
	// Close mid-stream is safe.
	if err := concat.Open(&Ctx{Task: simlat.Free()}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := concat.Next(); err != nil {
		t.Fatal(err)
	}
	if err := concat.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFuncCache(t *testing.T) {
	fc := NewFuncCache()
	tab := types.NewTable(intSchema("y"))
	calls := 0
	invoke := func(name string, args []types.Value) *types.Table {
		t.Helper()
		got, err := fc.Invoke(name, args, func() (*types.Table, error) {
			calls++
			return tab, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	args1 := []types.Value{types.NewInt(1), types.NewString("x")}
	invoke("Fn", args1)
	if calls != 1 {
		t.Fatal("empty cache did not call through")
	}
	if got := invoke("fn", args1); got != tab || calls != 1 { // case-insensitive name
		t.Error("cache miss after first call")
	}
	// Different args, different entry.
	invoke("Fn", []types.Value{types.NewInt(2), types.NewString("x")})
	if calls != 2 {
		t.Error("cross-args collision")
	}
	// Values that render distinctly must not collide via the separator.
	invoke("G", []types.Value{types.NewString("a"), types.NewString("b")})
	invoke("G", []types.Value{types.NewString("a\x00b")})
	if calls != 4 {
		t.Error("separator collision")
	}
	// Values of different types with identical renderings must not
	// collide: integer 1 vs string '1' vs double 1.0.
	invoke("H", []types.Value{types.NewInt(1)})
	invoke("H", []types.Value{types.NewString("1")})
	invoke("H", []types.Value{types.NewFloat(1)})
	if calls != 7 {
		t.Errorf("cross-type collision: %d calls", calls)
	}
	st := fc.Snapshot()
	if st.Hits != 1 || st.Misses != 7 || st.Coalesced != 0 {
		t.Errorf("stats = %+v", st)
	}
	if hits, misses := fc.Stats(); hits != 1 || misses != 7 {
		t.Errorf("Stats() = %d hits, %d misses", hits, misses)
	}
}

func TestFuncScanUsesCache(t *testing.T) {
	calls := 0
	fn := &fnTableFunc{name: "Cached", fn: func(args []types.Value) (*types.Table, error) {
		calls++
		out := types.NewTable(intSchema("y"))
		out.MustAppend(types.Row{types.NewInt(args[0].Int())})
		return out, nil
	}}
	scan := &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")}
	apply := &Apply{
		Left:  &Values{Sch: intSchema("l"), Rows: intRows(7, 7, 8)},
		Right: scan,
		Sch:   types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}},
	}
	ctx := &Ctx{Task: simlat.Free(), FuncCache: NewFuncCache()}
	tab, err := Run(apply, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 || calls != 2 {
		t.Errorf("rows=%d calls=%d (want 3 rows from 2 invocations)", tab.Len(), calls)
	}
	hits, misses := ctx.FuncCache.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d/%d", hits, misses)
	}
}

// stubForeign implements catalog.ForeignServer for RemoteScan tests.
type stubForeign struct {
	res *types.Table
	err error
}

func (s *stubForeign) Name() string { return "stub" }
func (s *stubForeign) TableSchemaContext(context.Context, string) (types.Schema, error) {
	return s.res.Schema, nil
}
func (s *stubForeign) QueryContext(_ context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.res, nil
}

func TestRemoteScanOperator(t *testing.T) {
	res := types.NewTable(intSchema("n"))
	res.MustAppend(types.Row{types.NewInt(5)})
	sel, err := sqlparser.ParseSelect("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	scan := &RemoteScan{Server: &stubForeign{res: res}, Query: sel, Sch: intSchema("n")}
	tab := runAll(t, scan)
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 5 {
		t.Errorf("remote scan:\n%s", tab)
	}
	if !strings.Contains(scan.Describe(), "RemoteScan") || scan.Children() != nil {
		t.Error("Describe/Children")
	}
	// Remote error propagates.
	bad := &RemoteScan{Server: &stubForeign{err: errors.New("down")}, Query: sel, Sch: intSchema("n")}
	if _, err := Run(bad, &Ctx{Task: simlat.Free()}); err == nil {
		t.Error("remote error swallowed")
	}
	// Column-count mismatch detected.
	wide := &RemoteScan{Server: &stubForeign{res: res}, Query: sel, Sch: types.Schema{
		{Name: "a", Type: types.Integer}, {Name: "b", Type: types.Integer},
	}}
	if _, err := Run(wide, &Ctx{Task: simlat.Free()}); err == nil {
		t.Error("schema mismatch swallowed")
	}
}

func TestDescribeAndChildrenEverywhere(t *testing.T) {
	vals := &Values{Sch: intSchema("n"), Rows: intRows(1)}
	ops := []Operator{
		&Filter{Child: vals, Pred: Const{V: types.NewBool(true)}},
		&Project{Child: vals, Exprs: []Expr{Col{Idx: 0, Name: "n"}}, Sch: intSchema("n")},
		&Sort{Child: vals, Keys: []SortKey{{Expr: Col{Idx: 0, Name: "n"}, Desc: true}}},
		&Distinct{Child: vals},
		&Limit{Child: vals, Count: 1},
		&Agg{Child: vals, Aggs: []AggSpec{{Kind: AggCountStar}}, Sch: intSchema("c")},
		&Apply{Left: vals, Right: vals, Outer: true, Sch: types.Schema{
			{Name: "a", Type: types.Integer}, {Name: "b", Type: types.Integer}}},
	}
	for _, op := range ops {
		if op.Describe() == "" {
			t.Errorf("%T renders empty Describe", op)
		}
		if len(op.Children()) == 0 {
			t.Errorf("%T reports no children", op)
		}
		if len(op.Schema()) == 0 {
			t.Errorf("%T reports empty schema", op)
		}
	}
	hj := &Filter{Child: &HashJoin{
		Left: vals, Right: vals,
		LeftKeys:  []Expr{Col{Idx: 0, Name: "a"}},
		RightKeys: []Expr{Col{Idx: 0, Name: "b"}},
		Sch: types.Schema{
			{Name: "a", Type: types.Integer}, {Name: "b", Type: types.Integer}},
	}, Pred: Const{V: types.NewBool(true)}}
	if got := ExplainString(hj); got != "Filter TRUE\n  HashJoin on a#0=b#0\n    Values (1 rows)\n    Values (1 rows)\n" {
		t.Errorf("filtered HashJoin explains as %q", got)
	}
	agg := &Agg{
		Child:  vals,
		Groups: []Expr{Col{Idx: 0, Name: "n"}},
		Aggs:   []AggSpec{{Kind: AggSum, Arg: Col{Idx: 0, Name: "n"}, Distinct: true}},
		Sch:    types.Schema{{Name: "n", Type: types.Integer}, {Name: "s", Type: types.BigInt}},
	}
	if !strings.Contains(agg.Describe(), "DISTINCT") || !strings.Contains(agg.Describe(), "by") {
		t.Errorf("Agg describe = %q", agg.Describe())
	}
}

func TestAggKindStrings(t *testing.T) {
	specs := []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggCount, Arg: Col{Idx: 0, Name: "x"}},
		{Kind: AggSum, Arg: Col{Idx: 0, Name: "x"}, Distinct: true},
	}
	if specs[0].String() != "COUNT(*)" {
		t.Error(specs[0].String())
	}
	if !strings.Contains(specs[2].String(), "DISTINCT") {
		t.Error(specs[2].String())
	}
	for _, name := range []string{"sum", "avg", "min", "max"} {
		if _, err := AggKindOf(name, false); err != nil {
			t.Errorf("AggKindOf(%s): %v", name, err)
		}
	}
}

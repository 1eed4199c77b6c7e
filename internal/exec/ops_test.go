package exec

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/storage"
	"fedwf/internal/types"
)

func intRows(vals ...int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		out[i] = types.Row{types.NewInt(v)}
	}
	return out
}

func intSchema(name string) types.Schema {
	return types.Schema{{Name: name, Type: types.Integer}}
}

func runAll(t *testing.T, op Operator) *types.Table {
	t.Helper()
	tab, err := Run(op, &Ctx{Task: simlat.Free()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tab
}

func TestValuesOperator(t *testing.T) {
	v := &Values{Sch: intSchema("n"), Rows: intRows(1, 2, 3)}
	tab := runAll(t, v)
	if tab.Len() != 3 || tab.Rows[2][0].Int() != 3 {
		t.Errorf("values:\n%s", tab)
	}
	// Reopen yields the same rows.
	tab = runAll(t, v)
	if tab.Len() != 3 {
		t.Errorf("values after reopen: %d rows", tab.Len())
	}
	if v.Describe() == "" || v.Children() != nil {
		t.Error("Describe/Children")
	}
}

func TestTableScanOperator(t *testing.T) {
	tb, err := storage.NewTable("t", intSchema("n"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := tb.Insert(types.Row{types.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	scan := &TableScan{Table: tb, Sch: tb.Schema()}
	tab := runAll(t, scan)
	if tab.Len() != 5 {
		t.Errorf("scan rows = %d", tab.Len())
	}
	if !strings.Contains(scan.Describe(), "t") {
		t.Error("Describe")
	}

	// With a key the scan reads the index bucket, and so does its clone
	// (what a ParallelApply worker runs).
	if err := tb.CreateIndex("n"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(types.Row{types.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	keyed := &TableScan{Table: tb, Sch: tb.Schema(), KeyCol: "n", Key: types.NewInt(3)}
	for _, op := range []Operator{keyed, keyed.Clone()} {
		if tab := runAll(t, op); tab.Len() != 2 || tab.Rows[0][0].Int() != 3 || op.Describe() != "IndexScan t (n = 3)" {
			t.Errorf("%s:\n%s", op.Describe(), tab)
		}
	}
}

func TestFilterProjectLimit(t *testing.T) {
	src := &Values{Sch: intSchema("n"), Rows: intRows(1, 2, 3, 4, 5, 6)}
	filtered := &Filter{Child: src, Pred: Bin{Op: ">", L: Col{Idx: 0, Name: "n"}, R: Const{V: types.NewInt(2)}}}
	projected := &Project{
		Child: filtered,
		Exprs: []Expr{Bin{Op: "*", L: Col{Idx: 0, Name: "n"}, R: Const{V: types.NewInt(10)}}},
		Sch:   intSchema("n10"),
	}
	limited := &Limit{Child: projected, Count: 2, Skip: 1}
	tab := runAll(t, limited)
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 40 || tab.Rows[1][0].Int() != 50 {
		t.Errorf("pipeline:\n%s", tab)
	}
	// Unlimited count.
	unlimited := &Limit{Child: &Values{Sch: intSchema("n"), Rows: intRows(1, 2)}, Count: -1}
	if got := runAll(t, unlimited).Len(); got != 2 {
		t.Errorf("unlimited limit = %d", got)
	}
}

func TestSortOperator(t *testing.T) {
	src := &Values{Sch: types.Schema{
		{Name: "a", Type: types.Integer}, {Name: "b", Type: types.VarChar},
	}, Rows: []types.Row{
		{types.NewInt(2), types.NewString("x")},
		{types.Null, types.NewString("n")},
		{types.NewInt(1), types.NewString("y")},
		{types.NewInt(2), types.NewString("a")},
	}}
	sorted := &Sort{Child: src, Keys: []SortKey{
		{Expr: Col{Idx: 0, Name: "a"}},
		{Expr: Col{Idx: 1, Name: "b"}, Desc: true},
	}}
	tab := runAll(t, sorted)
	// NULLs first ascending; ties broken by b DESC.
	if !tab.Rows[0][0].IsNull() || tab.Rows[1][0].Int() != 1 ||
		tab.Rows[2][1].Str() != "x" || tab.Rows[3][1].Str() != "a" {
		t.Errorf("sorted:\n%s", tab)
	}
	// Descending puts NULLs last.
	desc := &Sort{Child: src, Keys: []SortKey{{Expr: Col{Idx: 0, Name: "a"}, Desc: true}}}
	tab = runAll(t, desc)
	if !tab.Rows[3][0].IsNull() {
		t.Errorf("desc NULL placement:\n%s", tab)
	}
}

func TestDistinctOperator(t *testing.T) {
	src := &Values{Sch: intSchema("n"), Rows: intRows(1, 2, 1, 3, 2, 1)}
	tab := runAll(t, &Distinct{Child: src})
	if tab.Len() != 3 {
		t.Errorf("distinct rows = %d", tab.Len())
	}
}

func TestApplyCrossAndLateral(t *testing.T) {
	left := &Values{Sch: intSchema("l"), Rows: intRows(1, 2)}
	right := &Values{Sch: intSchema("r"), Rows: intRows(10, 20)}
	apply := &Apply{Left: left, Right: right, Sch: types.Schema{
		{Name: "l", Type: types.Integer}, {Name: "r", Type: types.Integer},
	}}
	tab := runAll(t, apply)
	if tab.Len() != 4 {
		t.Errorf("cross rows = %d", tab.Len())
	}
	if len(apply.Children()) != 2 {
		t.Error("Children")
	}
	// Composition cost charged when Independent.
	apply.Independent = true
	task := simlat.NewVirtualTask()
	if _, err := Run(apply, &Ctx{Task: task, CompositionCost: 6 * simlat.PaperMS}); err != nil {
		t.Fatal(err)
	}
	if task.Elapsed() != 6*simlat.PaperMS {
		t.Errorf("composition cost = %v", task.Elapsed())
	}
}

// fnTableFunc is a minimal catalog.TableFunc used for lateral tests.
type fnTableFunc struct {
	name string
	fn   func(args []types.Value) (*types.Table, error)
}

func (f *fnTableFunc) Name() string { return f.name }
func (f *fnTableFunc) Params() []types.Column {
	return []types.Column{{Name: "x", Type: types.Integer}}
}
func (f *fnTableFunc) Schema() types.Schema { return intSchema("y") }
func (f *fnTableFunc) InvokeContext(_ context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	return f.fn(args)
}

func TestFuncScanLateralBinding(t *testing.T) {
	calls := 0
	double := &fnTableFunc{name: "Double", fn: func(args []types.Value) (*types.Table, error) {
		calls++
		out := types.NewTable(intSchema("y"))
		out.MustAppend(types.Row{types.NewInt(2 * args[0].Int())})
		return out, nil
	}}
	left := &Values{Sch: intSchema("l"), Rows: intRows(3, 4)}
	scan := &FuncScan{Fn: double, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")}
	apply := &Apply{Left: left, Right: scan, Sch: types.Schema{
		{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer},
	}}
	tab := runAll(t, apply)
	if calls != 2 || tab.Len() != 2 {
		t.Fatalf("calls=%d rows=%d", calls, tab.Len())
	}
	if tab.Rows[0][1].Int() != 6 || tab.Rows[1][1].Int() != 8 {
		t.Errorf("lateral results:\n%s", tab)
	}
	if !strings.Contains(scan.Describe(), "Double") {
		t.Error("Describe")
	}
}

func TestFuncScanError(t *testing.T) {
	boom := &fnTableFunc{name: "Boom", fn: func(args []types.Value) (*types.Table, error) {
		return nil, errors.New("boom")
	}}
	scan := &FuncScan{Fn: boom, Args: []Expr{Const{V: types.NewInt(1)}}, Sch: intSchema("y")}
	if _, err := Run(scan, &Ctx{Task: simlat.Free()}); err == nil {
		t.Error("function error swallowed")
	}
	// Argument evaluation errors surface with context.
	scanBadArg := &FuncScan{Fn: boom, Args: []Expr{Col{Idx: 9, Name: "out"}}, Sch: intSchema("y")}
	if _, err := Run(scanBadArg, &Ctx{Task: simlat.Free()}); err == nil {
		t.Error("argument error swallowed")
	}
}

func TestLeftApplyPadsNulls(t *testing.T) {
	left := &Values{Sch: intSchema("l"), Rows: intRows(1, 2, 3)}
	right := &Values{Sch: intSchema("r"), Rows: intRows(10, 20)}
	on := Bin{Op: "=", L: Bin{Op: "*", L: Col{Idx: 0, Name: "l"}, R: Const{V: types.NewInt(10)}}, R: Col{Idx: 1, Name: "r"}}
	la := &LeftApply{Left: left, Right: right, On: on, Sch: types.Schema{
		{Name: "l", Type: types.Integer}, {Name: "r", Type: types.Integer},
	}}
	tab := runAll(t, la)
	if tab.Len() != 3 {
		t.Fatalf("left join rows = %d\n%s", tab.Len(), tab)
	}
	if tab.Rows[0][1].Int() != 10 || tab.Rows[1][1].Int() != 20 || !tab.Rows[2][1].IsNull() {
		t.Errorf("left join:\n%s", tab)
	}
	if !strings.Contains(la.Describe(), "LeftApply") {
		t.Error("Describe")
	}
}

func TestHashJoinMatchesAndSkipsNullKeys(t *testing.T) {
	left := &Values{Sch: intSchema("l"), Rows: []types.Row{
		{types.NewInt(1)}, {types.NewInt(2)}, {types.Null}, {types.NewInt(2)},
	}}
	right := &Values{Sch: intSchema("r"), Rows: []types.Row{
		{types.NewInt(2)}, {types.NewInt(3)}, {types.Null},
	}}
	hj := &HashJoin{
		Left: left, Right: right,
		LeftKeys:  []Expr{Col{Idx: 0, Name: "l"}},
		RightKeys: []Expr{Col{Idx: 0, Name: "r"}},
		Sch: types.Schema{
			{Name: "l", Type: types.Integer}, {Name: "r", Type: types.Integer},
		},
	}
	tab := runAll(t, hj)
	// Two left rows with key 2 match one right row; NULL keys never join.
	if tab.Len() != 2 {
		t.Fatalf("hash join rows = %d\n%s", tab.Len(), tab)
	}
	for _, r := range tab.Rows {
		if r[0].Int() != 2 || r[1].Int() != 2 {
			t.Errorf("bad join row %v", r)
		}
	}
	if !strings.Contains(hj.Describe(), "HashJoin") {
		t.Error("Describe")
	}
	// Residual predicate.
	hj2 := &HashJoin{
		Left: &Values{Sch: intSchema("l"), Rows: intRows(1, 2)}, Right: &Values{Sch: intSchema("r"), Rows: intRows(1, 2)},
		LeftKeys:  []Expr{Col{Idx: 0, Name: "l"}},
		RightKeys: []Expr{Col{Idx: 0, Name: "r"}},
		Residual:  Bin{Op: ">", L: Col{Idx: 0, Name: "l"}, R: Const{V: types.NewInt(1)}},
		Sch: types.Schema{
			{Name: "l", Type: types.Integer}, {Name: "r", Type: types.Integer},
		},
	}
	if got := runAll(t, hj2).Len(); got != 1 {
		t.Errorf("residual join rows = %d", got)
	}
}

func TestAggOperator(t *testing.T) {
	src := &Values{Sch: types.Schema{
		{Name: "g", Type: types.Integer}, {Name: "v", Type: types.Integer},
	}, Rows: []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(1), types.NewInt(20)},
		{types.NewInt(2), types.NewInt(5)},
		{types.NewInt(1), types.Null}, // NULL ignored by aggregates
	}}
	agg := &Agg{
		Child:  src,
		Groups: []Expr{Col{Idx: 0, Name: "g"}},
		Aggs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggCount, Arg: Col{Idx: 1, Name: "v"}},
			{Kind: AggSum, Arg: Col{Idx: 1, Name: "v"}},
			{Kind: AggAvg, Arg: Col{Idx: 1, Name: "v"}},
			{Kind: AggMin, Arg: Col{Idx: 1, Name: "v"}},
			{Kind: AggMax, Arg: Col{Idx: 1, Name: "v"}},
		},
		Sch: types.Schema{
			{Name: "g", Type: types.Integer},
			{Name: "c*", Type: types.BigInt},
			{Name: "c", Type: types.BigInt},
			{Name: "s", Type: types.BigInt},
			{Name: "a", Type: types.Double},
			{Name: "mn", Type: types.BigInt},
			{Name: "mx", Type: types.BigInt},
		},
	}
	tab := runAll(t, agg)
	if tab.Len() != 2 {
		t.Fatalf("groups = %d", tab.Len())
	}
	var g1 types.Row
	for _, r := range tab.Rows {
		if r[0].Int() == 1 {
			g1 = r
		}
	}
	if g1[1].Int() != 3 || g1[2].Int() != 2 || g1[3].Int() != 30 || g1[4].Float() != 15 ||
		g1[5].Int() != 10 || g1[6].Int() != 20 {
		t.Errorf("group 1 aggregates: %v", g1)
	}
	if !strings.Contains(agg.Describe(), "Aggregate") {
		t.Error("Describe")
	}
}

func TestAggDistinctAndEmptyScalar(t *testing.T) {
	src := &Values{Sch: intSchema("v"), Rows: intRows(1, 1, 2, 2, 3)}
	agg := &Agg{
		Child: src,
		Aggs: []AggSpec{
			{Kind: AggCount, Arg: Col{Idx: 0, Name: "v"}, Distinct: true},
			{Kind: AggSum, Arg: Col{Idx: 0, Name: "v"}, Distinct: true},
		},
		Sch: types.Schema{{Name: "c", Type: types.BigInt}, {Name: "s", Type: types.BigInt}},
	}
	tab := runAll(t, agg)
	if tab.Rows[0][0].Int() != 3 || tab.Rows[0][1].Int() != 6 {
		t.Errorf("distinct aggregates: %v", tab.Rows[0])
	}
	// Scalar aggregate over empty input: one row; COUNT 0, SUM NULL.
	empty := &Agg{
		Child: &Values{Sch: intSchema("v")},
		Aggs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggSum, Arg: Col{Idx: 0, Name: "v"}},
			{Kind: AggAvg, Arg: Col{Idx: 0, Name: "v"}},
		},
		Sch: types.Schema{{Name: "c", Type: types.BigInt}, {Name: "s", Type: types.BigInt}, {Name: "a", Type: types.Double}},
	}
	tab = runAll(t, empty)
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 0 || !tab.Rows[0][1].IsNull() || !tab.Rows[0][2].IsNull() {
		t.Errorf("empty scalar aggregate:\n%s", tab)
	}
	// Grouped aggregate over empty input: no rows.
	emptyGrouped := &Agg{
		Child:  &Values{Sch: intSchema("v")},
		Groups: []Expr{Col{Idx: 0, Name: "v"}},
		Aggs:   []AggSpec{{Kind: AggCountStar}},
		Sch:    types.Schema{{Name: "v", Type: types.Integer}, {Name: "c", Type: types.BigInt}},
	}
	if got := runAll(t, emptyGrouped).Len(); got != 0 {
		t.Errorf("empty grouped aggregate rows = %d", got)
	}
}

func TestAggKindOf(t *testing.T) {
	if k, err := AggKindOf("count", true); err != nil || k != AggCountStar {
		t.Error("COUNT(*)")
	}
	if k, err := AggKindOf("count", false); err != nil || k != AggCount {
		t.Error("COUNT(x)")
	}
	if _, err := AggKindOf("nope", false); err == nil {
		t.Error("unknown aggregate accepted")
	}
	for _, k := range []AggKind{AggCount, AggCountStar, AggSum, AggAvg, AggMin, AggMax} {
		if k.String() == "?" {
			t.Errorf("AggKind %d has no name", k)
		}
	}
}

func TestExplainString(t *testing.T) {
	src := &Values{Sch: intSchema("n"), Rows: intRows(1)}
	tree := &Limit{Child: &Filter{Child: src, Pred: Const{V: types.NewBool(true)}}, Count: 1}
	out := ExplainString(tree)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "  Filter") {
		t.Errorf("explain:\n%s", out)
	}
}

func TestRunPropagatesOpenError(t *testing.T) {
	boom := &fnTableFunc{name: "Boom", fn: func([]types.Value) (*types.Table, error) {
		return nil, errors.New("open failure")
	}}
	scan := &FuncScan{Fn: boom, Args: []Expr{Const{V: types.NewInt(1)}}, Sch: intSchema("y")}
	if _, err := Run(scan, &Ctx{Task: simlat.Free()}); err == nil {
		t.Error("open error swallowed")
	}
}

func TestOperatorsAfterClose(t *testing.T) {
	// FuncScan.Next after Close returns EOF rather than panicking.
	ok := &fnTableFunc{name: "Ok", fn: func(args []types.Value) (*types.Table, error) {
		out := types.NewTable(intSchema("y"))
		out.MustAppend(types.Row{types.NewInt(1)})
		return out, nil
	}}
	scan := &FuncScan{Fn: ok, Args: []Expr{Const{V: types.NewInt(1)}}, Sch: intSchema("y")}
	if err := scan.Open(&Ctx{Task: simlat.Free()}, nil); err != nil {
		t.Fatal(err)
	}
	scan.Close()
	if _, err := scan.Next(); err != io.EOF {
		t.Errorf("Next after Close = %v", err)
	}
}

package exec

import (
	"fmt"
	"testing"

	"fedwf/internal/simlat"
	"fedwf/internal/storage"
	"fedwf/internal/types"
)

// One benchmark per operator that builds or buffers rows, each drained
// through Run — the consumer a statement has — over Values inputs, so the
// figures are the operator's own. Shapes follow fedbench: the join and the
// aggregate are local_join's (2 000 x 500 rows on 100 key values, 10 000
// rows into 100 groups), apart and as local_join's plan stacks them;
// Project, Sort and Distinct see wide_result's 2 000 three-column rows.

func benchRun(b *testing.B, op Operator, wantRows int) {
	b.Helper()
	ctx := &Ctx{Task: simlat.Free()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := Run(op, ctx)
		if err != nil || tab.Len() != wantRows {
			b.Fatalf("%d rows, %v; want %d rows", tab.Len(), err, wantRows)
		}
	}
}

// wideRows returns n rows (i, i%groups, "row-i%groups").
func wideRows(n, groups int) *Values {
	names := make([]types.Value, groups)
	for i := range names {
		names[i] = types.NewString(fmt.Sprintf("row-%012d", i))
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % groups)), names[i%groups]}
	}
	return &Values{Sch: types.Schema{
		{Name: "k", Type: types.Integer}, {Name: "v", Type: types.Integer}, {Name: "s", Type: types.VarChar},
	}, Rows: rows}
}

func BenchmarkHashJoin(b *testing.B) {
	k := Col{Idx: 0, Name: "k"}
	benchRun(b, &HashJoin{
		Left:     &Values{Sch: pairSchema, Rows: pairRows(2000, 100)},
		Right:    &Values{Sch: pairSchema, Rows: pairRows(500, 100)},
		LeftKeys: []Expr{k}, RightKeys: []Expr{k},
		Sch: append(pairSchema.Clone(), pairSchema...),
	}, 10000)
}

func BenchmarkAgg(b *testing.B) {
	benchRun(b, &Agg{
		Child:  &Values{Sch: pairSchema, Rows: pairRows(10000, 100)},
		Groups: []Expr{Col{Idx: 0, Name: "k"}},
		Aggs:   []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: Col{Idx: 1, Name: "v"}}},
		Sch:    append(pairSchema.Clone(), types.Column{Name: "s", Type: types.BigInt}),
	}, 100)
}

// BenchmarkAggOverHashJoin is local_join's plan over Values: the Agg folds
// the join's 10 000 rows through the one row a transient join reuses.
func BenchmarkAggOverHashJoin(b *testing.B) {
	k := Col{Idx: 0, Name: "k"}
	benchRun(b, &Agg{
		Child: &HashJoin{
			Left:     &Values{Sch: pairSchema, Rows: pairRows(2000, 100)},
			Right:    &Values{Sch: pairSchema, Rows: pairRows(500, 100)},
			LeftKeys: []Expr{k}, RightKeys: []Expr{k},
			Sch:       append(pairSchema.Clone(), pairSchema...),
			Transient: true,
		},
		Groups: []Expr{k},
		Aggs:   []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: Col{Idx: 3, Name: "v"}}},
		Sch:    append(pairSchema.Clone(), types.Column{Name: "s", Type: types.BigInt}),
	}, 100)
}

func BenchmarkProject(b *testing.B) {
	src := wideRows(2000, 1000)
	benchRun(b, &Project{
		Child: src,
		Exprs: []Expr{Col{Idx: 0, Name: "k"}, Col{Idx: 1, Name: "v"}, Col{Idx: 2, Name: "s"}},
		Sch:   src.Sch,
	}, 2000)
}

func BenchmarkSort(b *testing.B) {
	benchRun(b, &Sort{
		Child: wideRows(2000, 1000),
		Keys:  []SortKey{{Expr: Col{Idx: 1, Name: "v"}, Desc: true}, {Expr: Col{Idx: 2, Name: "s"}}},
	}, 2000)
}

// BenchmarkLateral is lateral_batch's join in each execution mode: 64 outer
// rows over ten keys, one two-column row per function call, chunks of 8 and
// two workers where the mode has them.
func BenchmarkLateral(b *testing.B) {
	left := make([]types.Row, 64)
	for i := range left {
		left[i] = types.Row{types.NewInt(int64(i%10 + 1))}
	}
	qr := types.Schema{{Name: "q", Type: types.Integer}, {Name: "r", Type: types.Integer}}
	fn := &fnTableFunc{name: "QualRelia", fn: func(args []types.Value) (*types.Table, error) {
		out := types.NewTable(qr)
		out.MustAppend(types.Row{types.NewInt(args[0].Int() % 5), types.NewInt(args[0].Int() % 7)})
		return out, nil
	}}
	for _, m := range []struct {
		name       string
		dop, batch int
	}{{"per_row", 1, 0}, {"batched", 1, 8}, {"parallel", 2, 0}, {"parallel_batched", 2, 8}} {
		b.Run(m.name, func(b *testing.B) {
			right := &FuncScan{Fn: fn, Args: []Expr{Col{Idx: 0, Name: "k"}}, Sch: qr}
			benchRun(b, lateralOp(&Values{Sch: intSchema("k"), Rows: left}, right,
				append(intSchema("k"), qr...), false, nil, m.dop, m.batch), 64)
		})
	}
}

func BenchmarkDistinct(b *testing.B) {
	src := wideRows(2000, 1000)
	benchRun(b, &Distinct{Child: &Project{
		Child: src,
		Exprs: []Expr{Col{Idx: 1, Name: "v"}, Col{Idx: 2, Name: "s"}},
		Sch:   src.Sch[1:],
	}}, 1000)
}

// BenchmarkRunWide is wide_result's plan over a real table: Project of the
// table's three columns over a Filter over a TableScan of 2 000 rows, all
// of which pass.
func BenchmarkRunWide(b *testing.B) {
	src := wideRows(2000, 1000)
	tab, err := storage.NewTable("wide", src.Sch)
	if err != nil {
		b.Fatal(err)
	}
	if err := tab.InsertAll(src.Rows); err != nil {
		b.Fatal(err)
	}
	k := Col{Idx: 0, Name: "k"}
	benchRun(b, &Project{
		Child: &Filter{Child: &TableScan{Table: tab, Sch: src.Sch},
			Pred: &Bin{Op: ">=", L: k, R: Const{V: types.NewInt(0)}}},
		Exprs: []Expr{k, Col{Idx: 1, Name: "v"}, Col{Idx: 2, Name: "s"}},
		Sch:   src.Sch,
	}, 2000)
}

package exec

import (
	"testing"

	"fedwf/internal/types"
)

// aggOverJoin is the body of a lateral join: F(l) — k%3 rows k*10+j for the
// outer key k — hash-joined on y%5 to fifteen rows (i%5, i), grouped by
// y%3 with COUNT(*), SUM(w) and MAX(y).
func aggOverJoin(transient bool) *Agg {
	y, w := Col{Idx: 0, Name: "y"}, Col{Idx: 2, Name: "w"}
	right := make([]types.Row, 15)
	for i := range right {
		right[i] = types.Row{types.NewInt(int64(i % 5)), types.NewInt(int64(i))}
	}
	join := &HashJoin{
		Left:     &FuncScan{Fn: &fnTableFunc{name: "F", fn: lateralF(false)}, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
		Right:    &Values{Sch: types.Schema{{Name: "k", Type: types.Integer}, {Name: "w", Type: types.Integer}}, Rows: right},
		LeftKeys: []Expr{&Bin{Op: "%", L: y, R: Const{V: types.NewInt(5)}}}, RightKeys: []Expr{Col{Idx: 0, Name: "k"}},
		Sch:       types.Schema{{Name: "y", Type: types.Integer}, {Name: "k", Type: types.Integer}, {Name: "w", Type: types.Integer}},
		Transient: transient,
	}
	return &Agg{
		Child:  join,
		Groups: []Expr{&Bin{Op: "%", L: y, R: Const{V: types.NewInt(3)}}},
		Aggs:   []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: w}, {Kind: AggMax, Arg: y}},
		Sch: types.Schema{{Name: "g", Type: types.Integer}, {Name: "c", Type: types.BigInt},
			{Name: "s", Type: types.BigInt}, {Name: "m", Type: types.Integer}},
	}
}

// A lateral join whose body is an Agg over a transient HashJoin returns
// what the same body over slab rows does, in the same order, with one
// worker and with four: each worker's clone reuses a row of its own.
func TestParallelApplyOverTransientJoin(t *testing.T) {
	if !aggOverJoin(true).Clone().(*Agg).Child.(*HashJoin).Transient {
		t.Fatal("Clone drops HashJoin.Transient")
	}
	left := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(40)...)}
	sch := append(intSchema("l"), aggOverJoin(false).Sch...)
	want := runAll(t, lateralOp(left, aggOverJoin(false), sch, false, nil, 1, 0))
	if want.Len() < 30 {
		t.Fatalf("reference has only %d rows", want.Len())
	}
	for _, dop := range []int{1, 4} {
		got := runAll(t, lateralOp(left, aggOverJoin(true), sch, false, nil, dop, 0))
		if got.String() != want.String() {
			t.Errorf("dop %d, transient join:\n%s\nwant:\n%s", dop, got, want)
		}
	}
}

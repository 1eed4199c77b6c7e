package exec

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// pairRows returns n rows (i%groups, i): enough of them to span several
// slab chunks.
func pairRows(n, groups int) []types.Row {
	out := make([]types.Row, n)
	for i := range out {
		out[i] = types.Row{types.NewInt(int64(i % groups)), types.NewInt(int64(i))}
	}
	return out
}

var pairSchema = types.Schema{{Name: "k", Type: types.Integer}, {Name: "v", Type: types.Integer}}

// slabOperators builds one plan per operator that carves its rows (or, for
// Sort, its key vectors) from a rowSlab, each returning a few hundred rows.
func slabOperators() map[string]Operator {
	src := func(n, groups int) Operator { return &Values{Sch: pairSchema, Rows: pairRows(n, groups)} }
	k, v := Col{Idx: 0, Name: "k"}, Col{Idx: 1, Name: "v"}
	four := append(pairSchema.Clone(), pairSchema...)
	project := func() Operator {
		return &Project{Child: src(300, 7), Exprs: []Expr{v, k, Bin{Op: "+", L: k, R: v}}, Sch: append(pairSchema.Clone(), types.Column{Name: "s", Type: types.BigInt})}
	}
	return map[string]Operator{
		"Project": project(),
		"HashJoin": &HashJoin{Left: src(60, 5), Right: src(25, 5), LeftKeys: []Expr{k}, RightKeys: []Expr{k},
			Residual: Bin{Op: "<>", L: v, R: Col{Idx: 3, Name: "rv"}}, Sch: four},
		"Apply": &Apply{Left: src(20, 5), Right: src(15, 5), Sch: four},
		"LeftApply": &LeftApply{Left: src(120, 9), Right: src(12, 6), Sch: four,
			On: Bin{Op: "=", L: k, R: Col{Idx: 2, Name: "rk"}}},
		"Agg": &Agg{Child: src(900, 300), Groups: []Expr{k}, Aggs: []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: v}},
			Sch: append(pairSchema.Clone(), types.Column{Name: "s", Type: types.BigInt})},
		"Sort": &Sort{Child: project(), Keys: []SortKey{{Expr: Col{Idx: 1, Name: "k"}, Desc: true}, {Expr: Col{Idx: 0, Name: "v"}}}},
	}
}

// Every row an operator returns is capped at its length and shares no cell
// with another: a consumer may append to a row or overwrite it in place,
// as it could when each row was its own allocation.
func TestSlabRowsDoNotAlias(t *testing.T) {
	for name, op := range slabOperators() {
		rows := runAll(t, op).Rows
		if len(rows) < 100 {
			t.Fatalf("%s: only %d rows, not enough to cross chunks", name, len(rows))
		}
		want := make([]string, len(rows))
		for i, r := range rows {
			if cap(r) != len(r) {
				t.Fatalf("%s: row %d has len %d, cap %d", name, i, len(r), cap(r))
			}
			want[i] = r.String()
		}
		for i := range rows {
			grown := append(rows[i], types.NewString("appended"))
			for j := range rows[i] {
				rows[i][j] = types.NewString("overwritten")
			}
			for _, n := range []int{i - 1, i + 1} {
				if n >= 0 && n < len(rows) && rows[n].String() != want[n] {
					t.Fatalf("%s: writing row %d changed row %d to %s, was %s", name, i, n, rows[n], want[n])
				}
			}
			copy(rows[i], grown) // restore, so row i+1's check of row i holds
			if rows[i].String() != want[i] {
				t.Fatalf("%s: append to row %d did not copy it: %s, was %s", name, i, grown, want[i])
			}
		}
	}
}

// recorder passes its child's rows through and keeps every one of them, as
// a materialising consumer would.
type recorder struct {
	Operator
	rows *[]types.Row
}

func (r recorder) Next() (types.Row, error) {
	row, err := r.Operator.Next()
	if err == nil {
		*r.rows = append(*r.rows, row)
	}
	return row, err
}

// An Apply re-opens its inner side once per outer row. The rows the inner
// operators handed out during earlier openings must survive the later ones.
func TestSlabRowsSurviveReopen(t *testing.T) {
	var inner []types.Row
	right := recorder{rows: &inner, Operator: &Project{
		Child: &Values{Sch: intSchema("r"), Rows: intRows(seqInts(40)...)},
		Exprs: []Expr{Bin{Op: "*", L: Col{Idx: 0, Name: "r"}, R: Const{V: types.NewInt(1000)}}},
		Sch:   intSchema("p"),
	}}
	apply := &Apply{Left: &Values{Sch: intSchema("l"), Rows: intRows(seqInts(30)...)}, Right: right,
		Sch: types.Schema{{Name: "l", Type: types.Integer}, {Name: "p", Type: types.Integer}}}
	outer := runAll(t, apply).Rows
	if len(outer) != 30*40 || len(inner) != 30*40 {
		t.Fatalf("%d outer, %d inner rows, want 1200 each", len(outer), len(inner))
	}
	for i := range outer {
		wantL, wantP := int64(i/40), int64(i%40)*1000
		if inner[i][0].Int() != wantP {
			t.Fatalf("inner row %d = %s after later openings, want [%d]", i, inner[i], wantP)
		}
		if outer[i][0].Int() != wantL || outer[i][1].Int() != wantP {
			t.Fatalf("outer row %d = %s, want [%d, %d]", i, outer[i], wantL, wantP)
		}
	}
}

// A candidate row a join predicate rejects goes back to the slab: the rows
// that do match stay packed, whatever the predicate's selectivity.
func TestSlabRejectedCandidatesCostNoSpace(t *testing.T) {
	// 200 x 200 candidates, 200 matches.
	left := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(200)...)}
	right := &Values{Sch: intSchema("r"), Rows: intRows(seqInts(200)...)}
	join := &LeftApply{Left: left, Right: right, On: Bin{Op: "=", L: Col{Idx: 0, Name: "l"}, R: Col{Idx: 1, Name: "r"}},
		Sch: types.Schema{{Name: "l", Type: types.Integer}, {Name: "r", Type: types.Integer}}}
	rows := runAll(t, join).Rows
	if len(rows) != 200 {
		t.Fatalf("%d rows, want 200", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) || r[1].Int() != int64(i) {
			t.Fatalf("row %d = %s", i, r)
		}
	}
	// Chunks of 1, 2, 4, ... 128 rows hold 200 packed rows in 8.
	chunks := 1
	for i := 1; i < len(rows); i++ {
		if unsafe.Pointer(&rows[i][0]) != unsafe.Add(unsafe.Pointer(&rows[i-1][1]), unsafe.Sizeof(types.Value{})) {
			chunks++
		}
	}
	if chunks > 8 {
		t.Errorf("200 matching rows lie in %d chunks: rejected candidates kept their cells", chunks)
	}
}

func TestRowSlabChunks(t *testing.T) {
	var s rowSlab
	if r := s.alloc(0); r == nil || len(r) != 0 {
		t.Errorf("alloc(0) = %#v, want an empty non-nil row", r)
	}
	// Chunks hold 1, 2, 4, ... rows and never more than the byte cap.
	var sizes []int
	for i := 0; i < 1000; i++ {
		r := s.alloc(3)
		if len(r) != 3 || cap(r) != 3 {
			t.Fatalf("alloc(3): len %d cap %d", len(r), cap(r))
		}
		if s.off == 3 { // the first row of a new chunk
			sizes = append(sizes, 0)
		}
		sizes[len(sizes)-1]++
	}
	for c, got := range sizes[:len(sizes)-1] { // the last chunk is part-filled
		if want := min(1<<c, slabChunkValues/3); got != want {
			t.Errorf("chunk %d holds %d rows, want %d", c, got, want)
		}
	}
	if size := int(unsafe.Sizeof(types.Value{})); slabChunkValues*size > 8192-8 || (slabChunkValues+1)*size <= 8192-8 {
		t.Errorf("slabChunkValues = %d does not fill 8192-8 bytes", slabChunkValues)
	}
	// A row wider than a chunk still gets its cells, in a chunk of its own.
	if r := s.alloc(slabChunkValues + 5); len(r) != slabChunkValues+5 {
		t.Errorf("wide row: len %d", len(r))
	}
	// unalloc hands the same cells out again.
	a := s.alloc(4)
	s.unalloc(a)
	if b := s.alloc(4); &a[0] != &b[0] {
		t.Error("alloc after unalloc did not reuse the cells")
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// perRowProject is Project as it was before the slab: one make per row.
type perRowProject struct{ Project }

func (p *perRowProject) Next() (types.Row, error) {
	r, err := p.Child.Next()
	if err != nil {
		return nil, err
	}
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		if out[i], err = e.Eval(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The first chunk is one row: a one-row result (an I-UDTF body, a point
// SELECT) allocates what it did when every row was its own make.
func TestSlabOneRowResultAllocatesNoMore(t *testing.T) {
	var sink types.Row
	for n := 1; n <= 6; n++ {
		slab := bytesPerRun(200, func() { var s rowSlab; sink = s.alloc(n) })
		plain := bytesPerRun(200, func() { sink = make(types.Row, n) })
		if slab > plain {
			t.Errorf("first alloc(%d): %d bytes, make allocates %d", n, slab, plain)
		}
	}
	_ = sink
	ctx := &Ctx{Task: simlat.Free()}
	k, v := Col{Idx: 0, Name: "k"}, Col{Idx: 1, Name: "v"}
	mk := func() Project {
		return Project{Child: &Values{Sch: pairSchema, Rows: pairRows(1, 1)}, Exprs: []Expr{v, k, v}, Sch: pairSchema}
	}
	run := func(op Operator) func() {
		return func() {
			if tab, err := Run(op, ctx); err != nil || tab.Len() != 1 {
				panic(fmt.Sprint(tab, err))
			}
		}
	}
	slabbed, plain := mk(), perRowProject{mk()}
	if got, want := bytesPerRun(200, run(&slabbed)), bytesPerRun(200, run(&plain)); got > want {
		t.Errorf("one-row Project: %d bytes per run, %d with a make per row", got, want)
	}
}

// ParallelApply clones its right side per worker, so each worker's
// operators carve from their own slabs. Run under -race.
func TestParallelApplyOverSlabOperators(t *testing.T) {
	sch := types.Schema{{Name: "l", Type: types.Integer}, {Name: "y", Type: types.Integer}, {Name: "n", Type: types.BigInt}}
	mk := func(par bool) Operator {
		left := &Values{Sch: intSchema("l"), Rows: intRows(seqInts(64)...)}
		// Project over an Agg over a lateral function scan: two slab users
		// on every worker.
		right := &Project{
			Child: &Agg{
				Child:  &FuncScan{Fn: &fnTableFunc{name: "F", fn: fanOut}, Args: []Expr{Col{Idx: 0, Name: "l"}}, Sch: intSchema("y")},
				Groups: []Expr{Col{Idx: 0, Name: "y"}}, Aggs: []AggSpec{{Kind: AggCountStar}},
				Sch: types.Schema{{Name: "y", Type: types.Integer}, {Name: "n", Type: types.BigInt}},
			},
			Exprs: []Expr{Col{Idx: 0, Name: "y"}, Col{Idx: 1, Name: "n"}},
			Sch:   sch[1:],
		}
		if par {
			return &ParallelApply{Left: left, Right: right, Sch: sch, DOP: 4}
		}
		return &Apply{Left: left, Right: right, Sch: sch}
	}
	want := runAll(t, mk(false)).String()
	for i := 0; i < 5; i++ {
		if got := runAll(t, mk(true)).String(); got != want {
			t.Fatalf("parallel:\n%s\nsequential:\n%s", got, want)
		}
	}
}

package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// The lateral join runs in three modes — per outer row, in chunks of
// set-oriented calls, and on a pool of workers — each inner or outer, with
// or without the function cache and graceful degradation. TestLateralModesAgree
// runs generated left inputs through every combination and holds each to a
// naive nested loop written here: the same rows in the same order, the same
// error, the same warnings and partial flag, and the same number of cache
// lookups.
//
// The one place the modes differ by design is the resilience unit: when the
// right side is a bare function scan and batching is on, a degradable failure
// NULL-pads the whole chunk the failing row travelled in, and chunks are
// formed per worker (worker w takes rows w, w+dop, ...). The naive loop
// models exactly that.
//
// A failed set-oriented call also caches its error for every argument row it
// carried, so with the cache on a later chunk of another worker may or may not
// see that error, depending on timing. The inputs of the failure scenario
// therefore repeat only failing keys: a key that succeeds occurs once.

// errDown is the failure of the application system behind F: degradable,
// and the same for every key, so every mode reports the same text.
var errDown = fmt.Errorf("pdm: %w", resil.ErrAppSysUnavailable)

// lateralDownKeys are the keys F fails on in the failure scenario.
var lateralDownKeys = map[int64]bool{4: true, 7: true}

// lateralF yields, for key k, k%3 rows k*10+j; one NULL row for a NULL key;
// and, when down, errDown for the keys in lateralDownKeys.
func lateralF(down bool) func(args []types.Value) (*types.Table, error) {
	return func(args []types.Value) (*types.Table, error) {
		out := types.NewTable(intSchema("y"))
		k := args[0]
		if k.IsNull() {
			out.MustAppend(types.Row{types.Null})
			return out, nil
		}
		if down && lateralDownKeys[k.Int()] {
			return nil, errDown
		}
		for j := int64(0); j < k.Int()%3; j++ {
			out.MustAppend(types.Row{types.NewInt(k.Int()*10 + j)})
		}
		return out, nil
	}
}

// lateralG yields, for y, y%2+1 rows y*100+j, and nothing for NULL.
func lateralG(args []types.Value) (*types.Table, error) {
	out := types.NewTable(intSchema("z"))
	if y := args[0]; !y.IsNull() {
		for j := int64(0); j <= y.Int()%2; j++ {
			out.MustAppend(types.Row{types.NewInt(y.Int()*100 + j)})
		}
	}
	return out, nil
}

// lateralLeft draws 0-40 outer keys. Without failures they repeat freely
// over 0-9 with NULLs; in the failure scenario the failing keys repeat and
// every other key (at most one NULL among them) occurs once.
func lateralLeft(rng *rand.Rand, down bool) []types.Row {
	rows := make([]types.Row, rng.Intn(41))
	fresh, haveNull := int64(10), false
	for i := range rows {
		r := rng.Intn(11)
		switch {
		case !down && r == 10:
			rows[i] = types.Row{types.Null}
		case !down:
			rows[i] = types.Row{types.NewInt(int64(r))}
		case r < 3:
			rows[i] = types.Row{types.NewInt([]int64{4, 7}[r%2])}
		case r == 3 && !haveNull:
			rows[i], haveNull = types.Row{types.Null}, true
		default:
			rows[i] = types.Row{types.NewInt(fresh)}
			fresh++
		}
	}
	return rows
}

// Right-side shapes.
const (
	shapeScan     = iota // F(k)
	shapeFiltered        // F(k) under a Filter keeping even y
	shapeNested          // F(k) laterally joined with G(y)
)

// lateralMode is one combination under test.
type lateralMode struct {
	down            bool // F fails on lateralDownKeys
	shape           int
	outer, on       bool
	dop, batch      int
	cache, degraded bool
}

func (m lateralMode) String() string {
	return fmt.Sprintf("down=%v shape=%d outer=%v on=%v dop=%d batch=%d cache=%v degraded=%v",
		m.down, m.shape, m.outer, m.on, m.dop, m.batch, m.cache, m.degraded)
}

// lateralOn keeps a joined row [k, y, ...] when y%3 <> 1.
var lateralOn = &Bin{Op: "<>", L: &Bin{Op: "%", L: Col{Idx: 1, Name: "y"}, R: Const{V: types.NewInt(3)}}, R: Const{V: types.NewInt(1)}}

func (m lateralMode) rightWidth() int {
	if m.shape == shapeNested {
		return 2
	}
	return 1
}

// build returns the operator for m over left.
func (m lateralMode) build(left []types.Row) Operator {
	f := &fnTableFunc{name: "F", fn: lateralF(m.down)}
	var right Operator = &FuncScan{Fn: f, Args: []Expr{Col{Idx: 0, Name: "k"}}, Sch: intSchema("y")}
	rightSch := intSchema("y")
	switch m.shape {
	case shapeFiltered:
		right = &Filter{Child: right, Pred: &Bin{Op: "=",
			L: &Bin{Op: "%", L: Col{Idx: 0, Name: "y"}, R: Const{V: types.NewInt(2)}}, R: Const{V: types.NewInt(0)}}}
	case shapeNested:
		rightSch = types.Schema{{Name: "y", Type: types.Integer}, {Name: "z", Type: types.Integer}}
		g := &FuncScan{Fn: &fnTableFunc{name: "G", fn: lateralG}, Args: []Expr{Col{Idx: 1, Name: "y"}}, Sch: intSchema("z")}
		right = lateralOp(right, g, rightSch, false, nil, m.dop, m.batch)
	}
	var on Expr
	if m.on {
		on = lateralOn
	}
	sch := append(intSchema("k"), rightSch...)
	return lateralOp(&Values{Sch: intSchema("k"), Rows: left}, right, sch, m.outer, on, m.dop, m.batch)
}

// lateralOutcome is everything a run is compared on.
type lateralOutcome struct {
	rows     string
	err      string
	warnings string
	partial  bool
	lookups  int
}

// run executes m's operator over left.
func (m lateralMode) run(left []types.Row) lateralOutcome {
	ctx := &Ctx{Task: simlat.NewVirtualTask(), Warnings: &Warnings{}, AllowDegraded: m.degraded}
	if m.cache {
		ctx.FuncCache = NewFuncCache()
	}
	tab, err := Run(m.build(left), ctx)
	if err != nil {
		return lateralOutcome{err: err.Error()}
	}
	return lateralOutcome{
		rows:     renderRows(tab.Rows),
		warnings: strings.Join(ctx.Warnings.List(), "\n"),
		partial:  ctx.Warnings.Partial(),
		lookups:  ctx.FuncCache.Snapshot().Total(),
	}
}

func renderRows(rows []types.Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// chunkOf names the resilience unit of outer row i of n: the row itself, or
// the chunk of a bare function scan under batching, which worker i%w fills
// with its rows in order.
func (m lateralMode) chunkOf(i, n int) [2]int {
	if m.shape != shapeScan || m.batch < 2 {
		return [2]int{i, 0}
	}
	w := 1
	if m.dop > 1 {
		w = min(m.dop, n)
	}
	return [2]int{i % w, i / w / m.batch}
}

// naive is the reference: a nested loop over left and the functions' values.
func (m lateralMode) naive(left []types.Row) lateralOutcome {
	f := lateralF(m.down)
	rightOf := func(k types.Value) []types.Row {
		tab, _ := f([]types.Value{k})
		var out []types.Row
		for _, r := range tab.Rows {
			y := r[0]
			switch m.shape {
			case shapeScan:
				out = append(out, types.Row{y})
			case shapeFiltered:
				if !y.IsNull() && y.Int()%2 == 0 {
					out = append(out, types.Row{y})
				}
			case shapeNested:
				g, _ := lateralG([]types.Value{y})
				for _, z := range g.Rows {
					out = append(out, types.Row{y, z[0]})
				}
			}
		}
		return out
	}
	fails := func(k types.Value) bool { return m.down && !k.IsNull() && lateralDownKeys[k.Int()] }
	failedUnits := map[[2]int]bool{}
	for i, lr := range left {
		if fails(lr[0]) {
			failedUnits[m.chunkOf(i, len(left))] = true
		}
	}
	if len(failedUnits) > 0 && !(m.outer && m.degraded) {
		return lateralOutcome{err: errDown.Error()}
	}
	var rows []types.Row
	lookups := 0
	pad := func(lr types.Row) {
		row := append(types.Row{}, lr...)
		for j := 0; j < m.rightWidth(); j++ {
			row = append(row, types.Null)
		}
		rows = append(rows, row)
	}
	for i, lr := range left {
		lookups++ // F
		if failedUnits[m.chunkOf(i, len(left))] {
			pad(lr)
			continue
		}
		if m.shape == shapeNested && !lr[0].IsNull() {
			lookups += int(lr[0].Int() % 3) // G, once per row of F
		} else if m.shape == shapeNested {
			lookups++ // G(NULL)
		}
		matched := false
		for _, rr := range rightOf(lr[0]) {
			row := append(append(types.Row{}, lr...), rr...)
			if m.on && (row[1].IsNull() || row[1].Int()%3 == 1) {
				continue
			}
			matched = true
			rows = append(rows, row)
		}
		if m.outer && !matched {
			pad(lr)
		}
	}
	out := lateralOutcome{rows: renderRows(rows)}
	if n := len(failedUnits); n > 0 {
		msgs := make([]string, n)
		for i := range msgs {
			msgs[i] = "partial result: optional branch degraded: " + errDown.Error()
		}
		out.warnings, out.partial = strings.Join(msgs, "\n"), true
	}
	if m.cache {
		out.lookups = lookups
	}
	return out
}

func TestLateralModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	runs := 0
	for seed := 0; seed < 12; seed++ {
		for _, down := range []bool{false, true} {
			left := lateralLeft(rng, down)
			for shape := shapeScan; shape <= shapeNested; shape++ {
				for _, kind := range [][2]bool{{false, false}, {true, false}, {true, true}} {
					for _, dop := range []int{1, 2, 3} {
						for _, batch := range []int{0, 2, 3, 8} {
							for _, cache := range []bool{false, true} {
								for _, degraded := range []bool{false, true} {
									m := lateralMode{down: down, shape: shape, outer: kind[0], on: kind[1],
										dop: dop, batch: batch, cache: cache, degraded: degraded}
									want, got := m.naive(left), m.run(left)
									runs++
									if got != want {
										t.Fatalf("%s over %d rows %s:\ngot  %+v\nwant %+v", m, len(left), renderRows(left), got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs agree", runs)
}

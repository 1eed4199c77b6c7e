package exec

import (
	"fmt"
	"io"
	"strings"

	"fedwf/internal/types"
)

// AggKind enumerates built-in aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggKindOf maps a function name to its aggregate kind; star selects
// COUNT(*).
func AggKindOf(name string, star bool) (AggKind, error) {
	switch strings.ToUpper(name) {
	case "COUNT":
		if star {
			return AggCountStar, nil
		}
		return AggCount, nil
	case "SUM":
		return AggSum, nil
	case "AVG":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	default:
		return 0, fmt.Errorf("exec: unknown aggregate %s", name)
	}
}

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggCountStar:
		return "COUNT(*)"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "?"
	}
}

// AggSpec is one aggregate computation over the child's rows.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

func (a AggSpec) String() string {
	if a.Kind == AggCountStar {
		return "COUNT(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Kind, d, a.Arg)
}

// aggState accumulates one aggregate for one group; the AggSpec it folds
// is the Agg's, at the same position.
type aggState struct {
	count int64
	acc   types.Value              // SUM and AVG: the sum; MIN and MAX: the extreme
	seen  map[uint64][]types.Value // for DISTINCT
}

func newAggState(spec AggSpec) aggState {
	st := aggState{acc: types.Null}
	if spec.Distinct {
		st.seen = make(map[uint64][]types.Value)
	}
	return st
}

func (st *aggState) add(spec *AggSpec, row, params types.Row) error {
	if spec.Kind == AggCountStar {
		st.count++
		return nil
	}
	v, err := spec.Arg.Eval(row, params)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates ignore NULL inputs
	}
	if spec.Distinct {
		h := v.Hash()
		for _, prev := range st.seen[h] {
			if prev.Equal(v) {
				return nil
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	st.count++
	switch spec.Kind {
	case AggSum, AggAvg:
		if st.acc.IsNull() {
			st.acc = v
		} else {
			st.acc, err = types.Add(st.acc, v)
			if err != nil {
				return err
			}
		}
	case AggMin, AggMax:
		if st.acc.IsNull() {
			st.acc = v
			return nil
		}
		c, err := types.Compare(v, st.acc)
		if err != nil {
			return err
		}
		if (spec.Kind == AggMin && c < 0) || (spec.Kind == AggMax && c > 0) {
			st.acc = v
		}
	}
	return nil
}

func (st *aggState) result(spec AggSpec) (types.Value, error) {
	switch spec.Kind {
	case AggCount, AggCountStar:
		return types.NewInt(st.count), nil
	case AggSum, AggMin, AggMax:
		return st.acc, nil
	case AggAvg:
		if st.count == 0 {
			return types.Null, nil
		}
		f, err := st.acc.AsFloat()
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(f / float64(st.count)), nil
	default:
		return types.Null, fmt.Errorf("exec: bad aggregate kind %d", spec.Kind)
	}
}

// Agg implements hash aggregation. Output rows are the group-by values
// followed by the aggregate results, in specification order. Without
// GROUP BY keys it emits exactly one row (the SQL scalar-aggregate case),
// even over empty input.
//
// Agg keeps no input row: it copies a new group's keys and folds each row
// into the states before it asks for the next, so its child may hand it a
// row it reuses (HashJoin.Transient).
type Agg struct {
	Child  Operator
	Groups []Expr
	Aggs   []AggSpec
	Sch    types.Schema

	rows []types.Row
	pos  int
}

// Schema implements Operator.
func (g *Agg) Schema() types.Schema { return g.Sch }

// Open implements Operator.
func (g *Agg) Open(ctx *Ctx, bind types.Row) error {
	if err := g.Child.Open(ctx, bind); err != nil {
		return err
	}
	defer g.Child.Close()
	// Groups are numbered in order of first appearance. Group i's output
	// row is g.rows[i], which exists from the moment the group does: the
	// keys sit in its first cells, the aggregate results fill the rest at
	// the end. Its states are states[i*len(g.Aggs):][:len(g.Aggs)]; groups
	// whose keys share a hash are chained through head and next.
	var slab rowSlab
	width := len(g.Groups) + len(g.Aggs)
	g.rows = nil
	var states []aggState
	head := make(map[uint64]int32)
	var next []int32
	newGroup := func(keys []types.Value) {
		row := slab.alloc(width)
		copy(row, keys)
		g.rows = append(g.rows, row)
		for _, spec := range g.Aggs {
			states = append(states, newAggState(spec))
		}
	}
	// Every input row evaluates its keys into the one scratch vector; only a
	// row that opens a new group has them copied.
	keys := make([]types.Value, len(g.Groups))
	for {
		r, err := g.Child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		var h uint64 = 14695981039346656037
		for i, ge := range g.Groups {
			v, err := ge.Eval(r, ctx.Params)
			if err != nil {
				return err
			}
			keys[i] = v
			h = h*1099511628211 ^ v.Hash()
		}
		first, ok := head[h]
		if !ok {
			first = -1
		}
		grp := first
		for grp >= 0 && !g.rows[grp][:len(keys)].Equal(keys) {
			grp = next[grp]
		}
		if grp < 0 {
			grp = int32(len(g.rows))
			newGroup(keys)
			next = append(next, first)
			head[h] = grp
		}
		for i := range g.Aggs {
			if err := states[int(grp)*len(g.Aggs)+i].add(&g.Aggs[i], r, ctx.Params); err != nil {
				return err
			}
		}
	}
	if len(g.rows) == 0 && len(g.Groups) == 0 {
		// Scalar aggregate over empty input: one row of defaults.
		newGroup(nil)
	}
	for gi, row := range g.rows {
		for i, spec := range g.Aggs {
			v, err := states[gi*len(g.Aggs)+i].result(spec)
			if err != nil {
				return err
			}
			row[len(g.Groups)+i] = v
		}
	}
	g.pos = 0
	return nil
}

// Next implements Operator.
func (g *Agg) Next() (types.Row, error) {
	if g.pos >= len(g.rows) {
		return nil, io.EOF
	}
	r := g.rows[g.pos]
	g.pos++
	return r, nil
}

// Close implements Operator.
func (g *Agg) Close() error { g.rows = nil; return nil }

// Describe implements Operator.
func (g *Agg) Describe() string {
	groups := make([]string, len(g.Groups))
	for i, e := range g.Groups {
		groups[i] = e.String()
	}
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.String()
	}
	s := "Aggregate"
	if len(groups) > 0 {
		s += " by " + strings.Join(groups, ", ")
	}
	if len(aggs) > 0 {
		s += " compute " + strings.Join(aggs, ", ")
	}
	return s
}

// Children implements Operator.
func (g *Agg) Children() []Operator { return []Operator{g.Child} }

// Clone implements Operator.
func (g *Agg) Clone() Operator {
	return &Agg{Child: g.Child.Clone(), Groups: g.Groups, Aggs: g.Aggs, Sch: g.Sch}
}

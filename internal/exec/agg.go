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

// aggState accumulates one aggregate for one group.
type aggState struct {
	spec    AggSpec
	count   int64
	sum     types.Value
	extreme types.Value
	seen    map[uint64][]types.Value // for DISTINCT
}

func newAggState(spec AggSpec) *aggState {
	st := &aggState{spec: spec, sum: types.Null, extreme: types.Null}
	if spec.Distinct {
		st.seen = make(map[uint64][]types.Value)
	}
	return st
}

func (st *aggState) add(row types.Row) error {
	if st.spec.Kind == AggCountStar {
		st.count++
		return nil
	}
	v, err := st.spec.Arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates ignore NULL inputs
	}
	if st.spec.Distinct {
		h := v.Hash()
		for _, prev := range st.seen[h] {
			if prev.Equal(v) {
				return nil
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	st.count++
	switch st.spec.Kind {
	case AggSum, AggAvg:
		if st.sum.IsNull() {
			st.sum = v
		} else {
			st.sum, err = types.Add(st.sum, v)
			if err != nil {
				return err
			}
		}
	case AggMin, AggMax:
		if st.extreme.IsNull() {
			st.extreme = v
			return nil
		}
		c, err := types.Compare(v, st.extreme)
		if err != nil {
			return err
		}
		if (st.spec.Kind == AggMin && c < 0) || (st.spec.Kind == AggMax && c > 0) {
			st.extreme = v
		}
	}
	return nil
}

func (st *aggState) result() (types.Value, error) {
	switch st.spec.Kind {
	case AggCount, AggCountStar:
		return types.NewInt(st.count), nil
	case AggSum:
		return st.sum, nil
	case AggAvg:
		if st.count == 0 {
			return types.Null, nil
		}
		f, err := st.sum.AsFloat()
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(f / float64(st.count)), nil
	case AggMin, AggMax:
		return st.extreme, nil
	default:
		return types.Null, fmt.Errorf("exec: bad aggregate kind %d", st.spec.Kind)
	}
}

// Agg implements hash aggregation. Output rows are the group-by values
// followed by the aggregate results, in specification order. Without
// GROUP BY keys it emits exactly one row (the SQL scalar-aggregate case),
// even over empty input.
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
	// A group's output row exists from the moment the group does: the keys
	// sit in its first cells, the aggregate results fill the rest at the end.
	type group struct {
		row    types.Row
		states []*aggState
	}
	newGroup := func(row types.Row) *group {
		grp := &group{row: row, states: make([]*aggState, len(g.Aggs))}
		for i, spec := range g.Aggs {
			grp.states[i] = newAggState(spec)
		}
		return grp
	}
	var slab rowSlab
	width := len(g.Groups) + len(g.Aggs)
	groups := make(map[uint64][]*group)
	var order []*group
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
			v, err := ge.Eval(r)
			if err != nil {
				return err
			}
			keys[i] = v
			h = h*1099511628211 ^ v.Hash()
		}
		var grp *group
		for _, cand := range groups[h] {
			same := true
			for i := range keys {
				if !cand.row[i].Equal(keys[i]) {
					same = false
					break
				}
			}
			if same {
				grp = cand
				break
			}
		}
		if grp == nil {
			row := slab.alloc(width)
			copy(row, keys)
			grp = newGroup(row)
			groups[h] = append(groups[h], grp)
			order = append(order, grp)
		}
		for _, st := range grp.states {
			if err := st.add(r); err != nil {
				return err
			}
		}
	}
	if len(order) == 0 && len(g.Groups) == 0 {
		// Scalar aggregate over empty input: one row of defaults.
		order = append(order, newGroup(slab.alloc(width)))
	}
	g.rows = make([]types.Row, 0, len(order))
	for _, grp := range order {
		for i, st := range grp.states {
			v, err := st.result()
			if err != nil {
				return err
			}
			grp.row[len(g.Groups)+i] = v
		}
		g.rows = append(g.rows, grp.row)
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

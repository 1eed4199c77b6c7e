package fedfunc

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fedwf/internal/appsys"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// mappingGen draws random mappings over the purchasing scenario's local
// functions: random steps wired to parameters, constants and earlier
// steps' columns, ordering edges, a join, casts, and now and then the
// cyclic case's loop.
type mappingGen struct {
	rng     *rand.Rand
	reg     *appsys.Registry
	systems []string // the system of each function
	funcs   []*appsys.Function
}

func newMappingGen(seed int64) *mappingGen {
	reg := appsys.MustBuildScenario()
	g := &mappingGen{rng: rand.New(rand.NewSource(seed)), reg: reg}
	for _, sys := range reg.Systems() {
		s, _ := reg.System(sys)
		for _, name := range s.Functions() {
			fn, _ := s.Function(name)
			g.systems, g.funcs = append(g.systems, sys), append(g.funcs, fn)
		}
	}
	return g
}

var (
	randInts    = []int64{0, 1, 2, 3, 4, 5, 7, 9, 10, 12, 24, 29, appsys.SpecialSupplier}
	randStrings = []string{"bolt", "nut", "washer", "Comp17", "Supplier3", "Supplier5", "MegaParts", "nobody", "o'brian -- DROP"}
)

func (g *mappingGen) value(t types.Type) types.Value {
	if t.Base == types.VarCharType {
		return types.NewString(randStrings[g.rng.Intn(len(randStrings))])
	}
	return types.NewInt(randInts[g.rng.Intn(len(randInts))])
}

// draw holds a mapping under construction: each step's result, its
// consumers so far, and whether it and every step it reads answer at most
// one row per call.
type draw struct {
	m       *Mapping
	returns []types.Schema
	users   []int
	single  []bool
}

// column picks a column of base type b from a step before `before` that
// may take one more consumer; ok is false when there is none.
func (g *mappingGen) column(d *draw, b types.BaseType, before int, reading map[int]bool) (Ref, int, bool) {
	var refs []Ref
	var steps []int
	for i := 0; i < before; i++ {
		if d.users[i] > 0 && !d.single[i] && !reading[i] {
			continue
		}
		for _, c := range d.returns[i] {
			if c.Type.Base == b {
				refs, steps = append(refs, Ref{d.m.Steps[i].Alias, c.Name}), append(steps, i)
			}
		}
	}
	if len(refs) == 0 {
		return Ref{}, 0, false
	}
	k := g.rng.Intn(len(refs))
	return refs[k], steps[k], true
}

func (g *mappingGen) mapping(name string) *Mapping {
	d := &draw{m: &Mapping{Name: name, Go: true}}
	if g.rng.Intn(20) == 0 {
		return g.loop(d)
	}
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		t := types.Integer
		if g.rng.Intn(3) == 0 {
			t = types.VarCharN(30)
		}
		d.m.Params = append(d.m.Params, types.Column{Name: fmt.Sprintf("P%d", i), Type: t})
	}
	for i, n := 0, 1+g.rng.Intn(5); i < n; i++ {
		f := g.rng.Intn(len(g.funcs))
		fn := g.funcs[f]
		st := Step{Alias: fmt.Sprintf("S%d", i), System: g.systems[f], Function: fn.Name}
		single, reading := fn.Single, map[int]bool{}
		for _, p := range fn.Params {
			var params []string
			for _, mp := range d.m.Params {
				if mp.Type.Base == p.Type.Base {
					params = append(params, mp.Name)
				}
			}
			ref, from, ok := g.column(d, p.Type.Base, i, reading)
			switch r := g.rng.Intn(10); {
			case ok && r < 5:
				st.Args = append(st.Args, Column(ref.Step, ref.Column))
				if !reading[from] {
					reading[from] = true
					d.users[from]++
					single = single && d.single[from]
				}
			case len(params) > 0 && r < 8:
				st.Args = append(st.Args, Param(params[g.rng.Intn(len(params))]))
			default:
				st.Args = append(st.Args, Const(g.value(p.Type)))
			}
		}
		d.m.Steps = append(d.m.Steps, st)
		d.returns, d.users, d.single = append(d.returns, fn.Returns), append(d.users, 0), append(d.single, single)
	}
	if n := len(d.m.Steps); n > 1 && g.rng.Intn(4) == 0 {
		a := g.rng.Intn(n - 1)
		d.m.After = append(d.m.After, Edge{d.m.Steps[a].Alias, d.m.Steps[a+1+g.rng.Intn(n-a-1)].Alias})
	}
	if g.rng.Intn(3) == 0 {
		if l, _, ok := g.column(d, types.IntegerType, len(d.m.Steps), nil); ok {
			if r, _, ok := g.column(d, types.IntegerType, len(d.m.Steps), nil); ok {
				d.m.Joins = append(d.m.Joins, Join{l, r})
			}
		}
	}
	g.project(d, len(d.m.Steps))
	for k := 0; k < 3; k++ {
		args := make([]types.Value, len(d.m.Params))
		for i, p := range d.m.Params {
			args[i] = g.value(p.Type)
		}
		d.m.Samples = append(d.m.Samples, args)
	}
	return d.m
}

// loop draws the cyclic case: GetNextCompName iterated from a random
// cursor.
func (g *mappingGen) loop(d *draw) *Mapping {
	sys, _ := g.reg.System(appsys.ProductData)
	f, _ := sys.Function("GetNextCompName")
	d.m.Steps = []Step{step("S0", appsys.ProductData, f.Name, Param("Cur"))}
	d.m.Loop = &Loop{Body: "Fetch", Cursor: "Cur", Start: int64(g.rng.Intn(appsys.NumComponents + 3)), Next: "NextCursor", More: "HasMore"}
	d.returns, d.users, d.single = []types.Schema{f.Returns}, []int{0}, []bool{true}
	g.project(d, 1)
	d.m.Samples = [][]types.Value{{}}
	return d.m
}

// project draws one to three result columns, some of them cast.
func (g *mappingGen) project(d *draw, steps int) {
	for k, n := 0, 1+g.rng.Intn(3); k < n; k++ {
		bases := []types.BaseType{types.IntegerType, types.VarCharType}
		if g.rng.Intn(3) == 0 {
			bases[0], bases[1] = bases[1], bases[0]
		}
		var ref Ref
		var from int
		var ok bool
		for _, b := range bases {
			if ref, from, ok = g.column(d, b, steps, nil); ok {
				break
			}
		}
		if !ok {
			continue
		}
		typ := d.returns[from][d.returns[from].ColumnIndex(ref.Column)].Type
		out := Out{Name: fmt.Sprintf("O%d", k), Type: typ, From: ref}
		if g.rng.Intn(4) == 0 {
			out.Cast, out.Type = true, types.VarCharN(4) // strings only truncate
			if typ.Base == types.IntegerType {
				out.Type = []types.Type{types.BigInt, types.Double, types.VarCharN(12), types.VarCharN(4)}[g.rng.Intn(4)]
			}
		}
		d.m.Project = append(d.m.Project, out)
	}
}

// TestRandomMappingsAgree is the paper's equivalence as a generated
// oracle: 1 000 random mappings over the purchasing scenario, each
// compiled to the workflow process, the SQL I-UDTF and the Go I-UDTF,
// must return equal result multisets on every sample — and the SQL
// compiler must refuse exactly the loops. The draws cover every case.
func TestRandomMappingsAgree(t *testing.T) {
	wf, ud := newStacks(t)
	gen := newMappingGen(36)
	ctx := context.Background()
	call := func(s *Stack, name string, args []types.Value) string {
		tab, err := s.CallContext(ctx, simlat.Free(), name, args)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%d columns %v", len(tab.Schema), sortedRows(tab))
	}
	cases := map[Case]int{}
	for i := 0; i < 1000; i++ {
		m := gen.mapping(fmt.Sprintf("Rand%04d", i))
		spec, err := compile(m, gen.reg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		cases[spec.Case]++
		if spec.SupportsUDTF() == (m.Loop != nil) {
			t.Fatalf("%s: SQL compiler accepted a loop or refused a loop-free mapping", m.Name)
		}
		if err := wf.register(spec); err != nil {
			t.Fatalf("%s on WfMS: %v", m.Name, err)
		}
		if err := ud.register(spec); err != nil {
			t.Fatalf("%s on UDTF: %v\n%s", m.Name, err, spec.SQLDefinition)
		}
		for _, args := range m.Samples {
			want := call(wf, m.Name, args)
			got := map[string]string{"Go I-UDTF": call(ud, m.Name+"_Go", args)}
			if spec.SupportsUDTF() {
				got["SQL I-UDTF"] = call(ud, m.Name, args)
			}
			for arch, res := range got {
				if res != want || strings.HasPrefix(want, "error") {
					t.Fatalf("%s%v: WfMS %s, %s %s\nshape %s, SQL:\n%s", m.Name, args, want, arch, res, spec.Case, spec.SQLDefinition)
				}
			}
		}
	}
	for c := CaseTrivial; c <= CaseGeneral; c++ {
		if cases[c] == 0 {
			t.Errorf("no random mapping of case %s (drawn: %v)", c, cases)
		}
	}
}

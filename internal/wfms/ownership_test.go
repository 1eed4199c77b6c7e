package wfms

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// sharedInvoker answers every call of a function with the same table,
// the way a cache or a prebuilt answer would.
func sharedInvoker(answers map[string]*types.Table) Invoker {
	return InvokerFunc(func(_ context.Context, _ *simlat.Task, _, function string, _ []types.Value) (*types.Table, error) {
		return answers[function], nil
	})
}

func intTable(col string, vals ...int64) *types.Table {
	t := types.NewTable(types.Schema{{Name: col, Type: types.Integer}})
	for _, v := range vals {
		t.Rows = append(t.Rows, types.Row{types.NewInt(v)})
	}
	return t
}

// TestUnionLeavesAnswersUntouched: a row of Many binds One's argument
// twice, so One's two answers are unioned. The invoker hands out the same
// tables on every call, and neither may grow over six runs, per row or as
// a batch.
func TestUnionLeavesAnswersUntouched(t *testing.T) {
	p := &Process{
		Name:   "Union",
		Output: types.Schema{{Name: "Y", Type: types.Integer}},
		Nodes: []Node{
			&FunctionActivity{Name: "Many", Function: "Many"},
			&FunctionActivity{Name: "One", Function: "One", Args: []Source{From("Many", "X")}},
		},
		Flow:   []ControlConnector{{From: "Many", To: "One"}},
		Result: "One",
	}
	runs := map[string]func(*Engine) ([]*types.Table, error){
		"row": func(eng *Engine) ([]*types.Table, error) {
			out, err := eng.RunContext(context.Background(), simlat.Free(), p, map[string]types.Value{})
			return []*types.Table{out}, err
		},
		"batch": func(eng *Engine) ([]*types.Table, error) {
			return eng.RunBatchContext(context.Background(), simlat.Free(), p, []map[string]types.Value{{}, {}})
		},
	}
	for _, mode := range []string{"row", "batch"} {
		t.Run(mode, func(t *testing.T) {
			many, one := intTable("X", 1, 2), intTable("Y", 9)
			eng := New(sharedInvoker(map[string]*types.Table{"Many": many, "One": one}), Costs{})
			for run := 1; run <= 6; run++ {
				outs, err := runs[mode](eng)
				if err != nil {
					t.Fatal(err)
				}
				for _, out := range outs {
					if out.Len() != 2 {
						t.Fatalf("run %d answered %d rows, want 2:\n%s", run, out.Len(), out)
					}
				}
				if many.Len() != 2 || one.Len() != 1 {
					t.Fatalf("after run %d the shared answers hold %d and %d rows, want 2 and 1", run, many.Len(), one.Len())
				}
			}
		})
	}
}

// TestSharedAnswerUnchangedUnderConcurrentRuns: the result node answers
// one shared table with spare capacity to every call, each row binding one
// vector. Eight goroutines run the process per row and as batches and
// append to the outputs they get, which they own; the shared table must
// come back unchanged (run it with -race).
func TestSharedAnswerUnchangedUnderConcurrentRuns(t *testing.T) {
	shared := types.NewTable(types.Schema{{Name: "Qual", Type: types.Integer}, {Name: "Relia", Type: types.Integer}})
	shared.Rows = make([]types.Row, 0, 8)
	shared.Rows = append(shared.Rows,
		types.Row{types.NewInt(92), types.NewInt(71)},
		types.Row{types.NewInt(80), types.NewInt(65)})
	want := shared.String()
	spare := shared.Rows[:cap(shared.Rows)]
	p := &Process{
		Name:   "Shared",
		Input:  []types.Column{{Name: "SupplierNo", Type: types.Integer}},
		Output: types.Schema{{Name: "Qual", Type: types.Integer}, {Name: "Relia", Type: types.Integer}},
		Nodes: []Node{
			&FunctionActivity{Name: "QR", Function: "QualRelia", Args: []Source{Input("SupplierNo")}},
		},
		Result: "QR",
	}
	eng := New(sharedInvoker(map[string]*types.Table{"QualRelia": shared}), Costs{})
	check := func(out *types.Table) error {
		if out.String() != want {
			return fmt.Errorf("output\n%s\nwant\n%s", out, want)
		}
		out.Rows = append(out.Rows, types.Row{types.NewInt(0), types.NewInt(0)})
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			input := map[string]types.Value{"supplierno": types.NewInt(int64(g + 1))}
			for round := 0; round < 20; round++ {
				out, err := eng.RunContext(context.Background(), simlat.Free(), p, input)
				if err == nil {
					err = check(out)
				}
				if err == nil {
					var outs []*types.Table
					outs, err = eng.RunBatchContext(context.Background(), simlat.Free(), p, []map[string]types.Value{input, input, input})
					for _, out := range outs {
						if err == nil {
							err = check(out)
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if shared.String() != want || len(shared.Rows) != 2 {
		t.Errorf("the shared answer became\n%s", shared)
	}
	for i, r := range spare[2:] {
		if r != nil {
			t.Errorf("a run wrote %v past the shared answer's rows (slot %d)", r, 2+i)
		}
	}
}

// chunkInvoker answers a batch the way an application system does: the
// rows of every answer side by side in one slice, each answer's row slice
// left with the spare capacity of the rest, so that only the engine's caps
// keep the outputs of one chunk apart. A call answers the argument as X.
type chunkInvoker struct{}

var xSchema = types.Schema{{Name: "X", Type: types.Integer}}

func (chunkInvoker) Invoke(_ context.Context, _ *simlat.Task, _, _ string, args []types.Value) (*types.Table, error) {
	return &types.Table{Schema: xSchema, Rows: []types.Row{{args[0]}}}, nil
}

func (chunkInvoker) InvokeBatch(_ context.Context, _ *simlat.Task, _, _ string, rows [][]types.Value) ([]*types.Table, error) {
	all := make([]types.Row, len(rows))
	out := make([]*types.Table, len(rows))
	for i, args := range rows {
		all[i] = types.Row{args[0]}
		out[i] = &types.Table{Schema: xSchema, Rows: all[i : i+1]}
	}
	return out, nil
}

// independent checks that the tables of one chunk share nothing a caller
// could write through: appending a row to one, or a cell to one of its
// rows, leaves every other as it was.
func independent(t *testing.T, tabs []*types.Table) {
	t.Helper()
	want := make([]string, len(tabs))
	for i, tab := range tabs {
		want[i] = tab.String()
	}
	for i, tab := range tabs {
		_ = append(tab.Rows, types.Row{types.NewString("appended")})
		for _, r := range tab.Rows {
			_ = append(r, types.NewString("appended"))
		}
		for j, other := range tabs {
			if got := other.String(); got != want[j] {
				t.Fatalf("appending to output %d changed output %d:\n%s\nwas:\n%s", i, j, got, want[j])
			}
		}
	}
}

// TestBatchOutputsIndependent: the outputs of a vectorised batch — one
// whose result is a function activity answered from one row slice, one
// whose result is a helper carving its rows from the chunk's slab — equal
// the per-row outputs and are independent of each other.
func TestBatchOutputsIndependent(t *testing.T) {
	pair := types.Schema{{Name: "A", Type: types.Integer}, {Name: "B", Type: types.Integer}}
	call := &Process{
		Name:   "Call",
		Input:  []types.Column{{Name: "N", Type: types.Integer}},
		Output: xSchema,
		Nodes:  []Node{&FunctionActivity{Name: "F", Function: "F", Args: []Source{Input("N")}}},
		Result: "F",
	}
	helper := &Process{
		Name:   "Helper",
		Input:  []types.Column{{Name: "N", Type: types.Integer}},
		Output: pair,
		Nodes: []Node{
			&FunctionActivity{Name: "F", Function: "F", Args: []Source{Input("N")}},
			&FunctionActivity{Name: "G", Function: "G", Args: []Source{Input("N")}},
			&HelperActivity{Name: "Pair", Fn: func(in Containers) (*types.Table, error) {
				f, _ := in.Get("f")
				g, _ := in.Get("g")
				return in.Answer(pair, func(rows []types.Row, slab *types.Slab) ([]types.Row, error) {
					for _, a := range f.Rows {
						for _, b := range g.Rows {
							row := slab.Alloc(2)
							row[0], row[1] = a[0], b[0]
							rows = append(rows, row)
						}
					}
					return rows, nil
				})
			}},
		},
		Flow:   []ControlConnector{{From: "F", To: "Pair"}, {From: "G", To: "Pair"}},
		Result: "Pair",
	}
	eng := New(chunkInvoker{}, Costs{})
	inputs := make([]map[string]types.Value, 8)
	for i := range inputs {
		inputs[i] = map[string]types.Value{"n": types.NewInt(int64(i + 1))}
	}
	for _, p := range []*Process{call, helper} {
		outs, err := eng.RunBatchContext(context.Background(), simlat.Free(), p, inputs)
		if err != nil || len(outs) != len(inputs) {
			t.Fatalf("%s: %d outputs, %v", p.Name, len(outs), err)
		}
		for r, input := range inputs {
			one, err := eng.RunContext(context.Background(), simlat.Free(), p, input)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := outs[r].String(), one.String(); got != want || outs[r].Len() != 1 {
				t.Fatalf("%s row %d: batch output\n%s\nper row\n%s", p.Name, r, got, want)
			}
		}
		independent(t, outs)
	}
}

// TestHelperAnswersIndependent: the answers a helper builds through
// Containers.Answer for the rows of one chunk share a row slice, a slab and
// a slice of headers. Row 2's answer outgrows the room left in the row
// slice and row 3's takes that room; every answer must keep its own rows
// and be independent of the others.
func TestHelperAnswersIndependent(t *testing.T) {
	ch := &answers{n: 4, width: 1}
	tabs := make([]*types.Table, ch.n)
	for r := range tabs {
		var err error
		tabs[r], err = Containers{chunk: ch, row: r}.Answer(xSchema, func(rows []types.Row, slab *types.Slab) ([]types.Row, error) {
			for k := 0; k <= r%3; k++ { // 1, 2, 3 and 1 rows
				row := slab.Alloc(1)
				row[0] = types.NewInt(int64(10*r + k))
				rows = append(rows, row)
			}
			return rows, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for r, tab := range tabs {
		if tab.Len() != r%3+1 {
			t.Fatalf("answer %d has %d rows, want %d", r, tab.Len(), r%3+1)
		}
		for k, row := range tab.Rows {
			if row[0].Int() != int64(10*r+k) {
				t.Fatalf("answer %d row %d = %v, want %d", r, k, row, 10*r+k)
			}
		}
	}
	independent(t, tabs)
}

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

package wfms

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fedwf/internal/appsys"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// tableInvoker answers each function with one prebuilt one-row table and
// charges nothing, so an allocation count over a run is the navigator's
// own. The tables are only read: every activity of the processes it
// serves binds one argument row.
func tableInvoker() Invoker {
	one := func(col string, v types.Value) *types.Table {
		t := types.NewTable(types.Schema{{Name: col, Type: types.TypeOf(v)}})
		t.Rows = append(t.Rows, types.Row{v})
		return t
	}
	answers := map[string]*types.Table{
		"GetQuality":     one("Qual", types.NewInt(92)),
		"GetReliability": one("Relia", types.NewInt(71)),
		"GetGrade":       one("Grade", types.NewInt(80)),
		"GetCompNo":      one("No", types.NewInt(7)),
		"DecidePurchase": one("Decision", types.NewString("YES")),
	}
	return InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
		return answers[function], nil
	})
}

// The navigator allocated 162 times per BuySuppComp instance and 289 times
// per vectorised batch of eight GetSuppQualRelia rows while every run
// validated its process again, rebuilt the topological order, scanned the
// connectors for each node's neighbours, keyed its containers by
// lower-cased names and copied them for every activity it launched. A
// template compiled at the first run and navigated by index, with one
// slab for an activity's argument vectors and copies only for helpers,
// brought that to 27 and 133. Handing helpers a view of the containers
// instead of a map (with the input container built only when asked for)
// and giving the output a fresh header over the result's rows instead of
// a copy of every row brought it to 24 and 53. Taking the batch's output
// headers from one slice brought the batch to 47 (the helper's chunk of
// answers costs one allocation of its own; this helper builds its answer
// without Containers.Answer). The budgets, those counts and 2 %, keep
// per-run template work and per-row copies from coming back unnoticed.
const (
	buySuppCompAllocBudget = 25
	reliaBatchAllocBudget  = 48
)

func TestNavigatorAllocationBudget(t *testing.T) {
	eng := New(tableInvoker(), Costs{})
	ctx := context.Background()

	buy := buySuppCompProcess()
	input := map[string]types.Value{"supplierno": types.NewInt(4), "compname": types.NewString("washer")}
	perRow := testing.AllocsPerRun(50, func() {
		out, err := eng.RunContext(ctx, simlat.Free(), buy, input)
		if err != nil || out.Len() != 1 {
			t.Fatalf("BuySuppComp: %v, %v", out, err)
		}
	})

	relia := parallelProcess()
	inputs := make([]map[string]types.Value, 8)
	for i := range inputs {
		inputs[i] = map[string]types.Value{"supplierno": types.NewInt(int64(i + 1))}
	}
	batch := testing.AllocsPerRun(50, func() {
		outs, err := eng.RunBatchContext(ctx, simlat.Free(), relia, inputs)
		if err != nil || len(outs) != len(inputs) || outs[0].Len() != 1 {
			t.Fatalf("GetSuppQualRelia batch: %v, %v", outs, err)
		}
	})
	t.Logf("BuySuppComp instance: %.0f allocs; GetSuppQualRelia batch of %d: %.0f allocs", perRow, len(inputs), batch)
	if perRow > buySuppCompAllocBudget {
		t.Errorf("a BuySuppComp instance allocates %.0f times, budget %d", perRow, buySuppCompAllocBudget)
	}
	if batch > reliaBatchAllocBudget {
		t.Errorf("a vectorised GetSuppQualRelia batch of %d allocates %.0f times, budget %d", len(inputs), batch, reliaBatchAllocBudget)
	}
}

// TestInvalidProcessFailsEveryRun: a process that fails validation is not
// kept as a template, so every run validates it again and fails, per row
// and as a batch alike.
func TestInvalidProcessFailsEveryRun(t *testing.T) {
	eng := New(tableInvoker(), Costs{})
	p := linearProcess()
	p.Result = "nowhere"
	input := map[string]types.Value{"suppliername": types.NewString("Supplier3")}
	for i := 0; i < 3; i++ {
		if _, err := eng.RunContext(context.Background(), simlat.Free(), p, input); err == nil {
			t.Fatalf("run %d of an invalid process succeeded", i)
		}
		if _, err := eng.RunBatchContext(context.Background(), simlat.Free(), p, []map[string]types.Value{input}); err == nil {
			t.Fatalf("batch %d of an invalid process succeeded", i)
		}
	}
	if n := eng.Instances(); n != 0 {
		t.Errorf("an invalid process started %d instances", n)
	}
}

// TestTemplateSharedByConcurrentRuns: one *Process, compiled once, runs
// from eight goroutines at once per row and as batches, each answering
// what a run of its own answers (run it with -race).
func TestTemplateSharedByConcurrentRuns(t *testing.T) {
	eng := New(testInvoker(t), testCosts())
	procs := []*Process{buySuppCompProcess(), parallelProcess(), allCompNamesProcess(0)}
	inputs := []map[string]types.Value{
		{"supplierno": types.NewInt(4), "compname": types.NewString("washer")},
		{"supplierno": types.NewInt(5)},
		{"start": types.NewInt(appsys.NumComponents - 3)},
	}
	want := make([]string, len(procs))
	for i, p := range procs {
		out, err := New(testInvoker(t), testCosts()).RunContext(context.Background(), simlat.NewVirtualTask(), p, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.String()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(procs)
				out, err := eng.RunContext(context.Background(), simlat.NewVirtualTask(), procs[i], inputs[i])
				if err == nil && out.String() != want[i] {
					err = fmt.Errorf("%s answered\n%s\nwant\n%s", procs[i].Name, out, want[i])
				}
				if err == nil {
					var outs []*types.Table
					outs, err = eng.RunBatchContext(context.Background(), simlat.NewVirtualTask(), procs[i], []map[string]types.Value{inputs[i], inputs[i]})
					if err == nil && (outs[0].String() != want[i] || outs[1].String() != want[i]) {
						err = fmt.Errorf("%s batch answered\n%s\n%s\nwant\n%s", procs[i].Name, outs[0], outs[1], want[i])
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
	kept := 0
	eng.templates.Range(func(_, _ any) bool { kept++; return true })
	if kept != len(procs) {
		t.Errorf("engine keeps %d templates for %d processes", kept, len(procs))
	}
}

// BenchmarkRunBatch measures one vectorised chunk of eight
// GetSuppQualRelia rows with zero costs: the batch navigator alone.
func BenchmarkRunBatch(b *testing.B) {
	eng := New(tableInvoker(), Costs{})
	p := parallelProcess()
	inputs := make([]map[string]types.Value, 8)
	for i := range inputs {
		inputs[i] = map[string]types.Value{"supplierno": types.NewInt(int64(i + 1))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatchContext(context.Background(), simlat.Free(), p, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmarks regenerating the paper's evaluation workloads with testing.B.
//
// Every table and figure has a bench: Fig. 5 (per federated function and
// architecture), Fig. 6 (the breakdown function under both stacks), the
// Sect. 3 mapping cases, the boot states, the parallel-vs-sequential
// contrast, the do-until loop scaling, and the controller ablation. The
// simulated step costs are scaled down (1 paper-millisecond -> 1
// microsecond of real sleeping), so the *shape* — who wins, by what
// factor, where the crossovers fall — reproduces the paper while a full
// run stays fast. Deterministic paper-time measurements are attached as
// custom metrics (paper-ms/op).
package fedwf_test

import (
	"context"
	"fmt"
	"testing"

	"fedwf/internal/appsys"
	"fedwf/internal/engine"
	"fedwf/internal/fedfunc"
	"fedwf/internal/plan"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/storage"
	"fedwf/internal/types"
	"fedwf/internal/udtf"
	"fedwf/internal/wfms"
)

// benchScale converts paper milliseconds to real sleeping time: 0.001
// turns one paper-millisecond into one real microsecond.
const benchScale = 0.001

// benchStacks builds one stack pair shared by a benchmark.
func benchStacks(b *testing.B) (*fedfunc.Stack, *fedfunc.Stack) {
	b.Helper()
	apps, err := appsys.BuildScenario()
	if err != nil {
		b.Fatal(err)
	}
	wf, err := fedfunc.NewStack(fedfunc.ArchWfMS, fedfunc.Options{Apps: apps})
	if err != nil {
		b.Fatal(err)
	}
	ud, err := fedfunc.NewStack(fedfunc.ArchUDTF, fedfunc.Options{Apps: apps})
	if err != nil {
		b.Fatal(err)
	}
	return wf, ud
}

// paperMSOf measures one hot call on the virtual clock, in paper-ms.
func paperMSOf(b *testing.B, s *fedfunc.Stack, spec *fedfunc.Spec) float64 {
	b.Helper()
	if _, err := s.CallSpecContext(context.Background(), simlat.Free(), spec, 0); err != nil {
		b.Fatal(err)
	}
	task := simlat.NewVirtualTask()
	if _, err := s.CallSpecContext(context.Background(), task, spec, 0); err != nil {
		b.Fatal(err)
	}
	return float64(task.Elapsed()) / float64(simlat.PaperMS)
}

func benchStackCall(b *testing.B, s *fedfunc.Stack, spec *fedfunc.Spec) {
	b.Helper()
	paperMS := paperMSOf(b, s, spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := simlat.NewWallTask(benchScale)
		if _, err := s.CallSpecContext(context.Background(), task, spec, 0); err != nil {
			b.Fatal(err)
		}
	}
	// ResetTimer clears custom metrics, so the deterministic paper-time
	// measurement is attached after the loop.
	b.ReportMetric(paperMS, "paper-ms/op")
}

// BenchmarkFig5 regenerates the Fig. 5 series: every federated function of
// the mapping catalog under both architectures.
func BenchmarkFig5(b *testing.B) {
	wf, ud := benchStacks(b)
	for _, spec := range fedfunc.Specs() {
		spec := spec
		b.Run(spec.Name+"/WfMS", func(b *testing.B) { benchStackCall(b, wf, spec) })
		if spec.SupportsUDTF() {
			b.Run(spec.Name+"/UDTF", func(b *testing.B) { benchStackCall(b, ud, spec) })
		}
	}
}

// BenchmarkFig6Breakdown runs the Fig. 6 function under both stacks and
// reports the deterministic WfMS/UDTF elapsed-time ratio.
func BenchmarkFig6Breakdown(b *testing.B) {
	wf, ud := benchStacks(b)
	spec, err := fedfunc.SpecByName("GetNoSuppComp")
	if err != nil {
		b.Fatal(err)
	}
	ratio := paperMSOf(b, wf, spec) / paperMSOf(b, ud, spec)
	for _, bc := range []struct {
		name  string
		stack *fedfunc.Stack
	}{{"WfMS", wf}, {"UDTF", ud}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			benchStackCall(b, bc.stack, spec)
			b.ReportMetric(ratio, "wfms-udtf-ratio")
		})
	}
}

// BenchmarkMappingCases regenerates the Sect. 3 table workload: every
// heterogeneity case executed through the architecture that supports it.
func BenchmarkMappingCases(b *testing.B) {
	wf, ud := benchStacks(b)
	for _, spec := range fedfunc.Specs() {
		spec := spec
		name := fmt.Sprintf("%s", spec.Case)
		stack := ud
		archTag := "UDTF"
		if !spec.SupportsUDTF() {
			stack = wf
			archTag = "WfMS"
		}
		b.Run(name+"/"+spec.Name+"/"+archTag, func(b *testing.B) { benchStackCall(b, stack, spec) })
	}
}

// BenchmarkBootStates regenerates the cold/warm/hot measurements (E4).
func BenchmarkBootStates(b *testing.B) {
	wf, _ := benchStacks(b)
	spec, err := fedfunc.SpecByName("GetSuppQual")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		level udtf.BootLevel
	}{{"Cold", udtf.FlushCold}, {"Warm", udtf.FlushWarm}, {"Hot", udtf.FlushHot}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wf.Flush(bc.level)
				task := simlat.NewWallTask(benchScale)
				if _, err := wf.CallSpecContext(context.Background(), task, spec, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelVsSequential regenerates E5: GetSuppQualRelia
// (parallel) vs GetSuppQual (sequential) under both architectures.
func BenchmarkParallelVsSequential(b *testing.B) {
	wf, ud := benchStacks(b)
	par, err := fedfunc.SpecByName("GetSuppQualRelia")
	if err != nil {
		b.Fatal(err)
	}
	seq, err := fedfunc.SpecByName("GetSuppQual")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		stack *fedfunc.Stack
		spec  *fedfunc.Spec
	}{
		{"WfMS/Parallel", wf, par},
		{"WfMS/Sequential", wf, seq},
		{"UDTF/Parallel", ud, par},
		{"UDTF/Sequential", ud, seq},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) { benchStackCall(b, bc.stack, bc.spec) })
	}
}

// BenchmarkLoopScaling regenerates E6: do-until iterations of the same
// local function rise linearly in cost.
func BenchmarkLoopScaling(b *testing.B) {
	apps, err := appsys.BuildScenario()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		n := n
		b.Run(fmt.Sprintf("calls=%d", n), func(b *testing.B) {
			stack, err := fedfunc.NewStack(fedfunc.ArchWfMS, fedfunc.Options{Apps: apps})
			if err != nil {
				b.Fatal(err)
			}
			process := fedfunc.AllCompNamesProcess(appsys.NumComponents - n)
			process.Name = fmt.Sprintf("AllCompNamesBench%d", n)
			if err := stack.RegisterProcess(process); err != nil {
				b.Fatal(err)
			}
			if _, err := stack.CallContext(context.Background(), simlat.Free(), process.Name, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				task := simlat.NewWallTask(benchScale)
				if _, err := stack.CallContext(context.Background(), task, process.Name, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkControllerAblation regenerates E7: both architectures with the
// controller in the path and bypassed.
func BenchmarkControllerAblation(b *testing.B) {
	apps, err := appsys.BuildScenario()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fedfunc.SpecByName("GetNoSuppComp")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		arch   fedfunc.Arch
		direct bool
	}{
		{"WfMS/WithController", fedfunc.ArchWfMS, false},
		{"WfMS/Direct", fedfunc.ArchWfMS, true},
		{"UDTF/WithController", fedfunc.ArchUDTF, false},
		{"UDTF/Direct", fedfunc.ArchUDTF, true},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			stack, err := fedfunc.NewStack(bc.arch, fedfunc.Options{Apps: apps, Direct: bc.direct})
			if err != nil {
				b.Fatal(err)
			}
			benchStackCall(b, stack, spec)
		})
	}
}

// ------------------------- substrate micro-benchmarks -------------------

// BenchmarkParser measures the SQL front end on the paper's most complex
// statement.
func BenchmarkParser(b *testing.B) {
	sql := `CREATE FUNCTION BuySuppComp (SupplierNo INT, CompName VARCHAR)
	 RETURNS TABLE (Decision VARCHAR) LANGUAGE SQL RETURN
	 SELECT DP.Answer
	 FROM TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ,
	      TABLE (GetReliability(BuySuppComp.SupplierNo)) AS GR,
	      TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG,
	      TABLE (GetCompNo(BuySuppComp.CompName)) AS GCN,
	      TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorJoin measures the FDBS executor on a hash join with
// aggregation over generated tables (no simulated latencies).
func BenchmarkExecutorJoin(b *testing.B) {
	eng := engine.New()
	s := eng.NewSession()
	s.MustExecContext(context.Background(), "CREATE TABLE l (K INT, V INT)")
	s.MustExecContext(context.Background(), "CREATE TABLE r (K INT, W INT)")
	lt, err := eng.Catalog().Table("l")
	if err != nil {
		b.Fatal(err)
	}
	rt, err := eng.Catalog().Table("r")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := lt.Insert(types.Row{types.NewInt(int64(i % 100)), types.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if err := rt.Insert(types.Row{types.NewInt(int64(i % 100)), types.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	query := "SELECT l.K, COUNT(*), SUM(r.W) FROM l, r WHERE l.K = r.K GROUP BY l.K"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryContext(context.Background(), query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinStrategyAblation contrasts the planner's hash join with
// the nested-loop fallback on the same query — the join-strategy ablation
// called out in DESIGN.md.
func BenchmarkJoinStrategyAblation(b *testing.B) {
	setup := func(opts plan.Options) *engine.Session {
		eng := engine.New()
		eng.SetPlanOptions(opts)
		s := eng.NewSession()
		s.MustExecContext(context.Background(), "CREATE TABLE l (K INT, V INT)")
		s.MustExecContext(context.Background(), "CREATE TABLE r (K INT, W INT)")
		lt, _ := eng.Catalog().Table("l")
		rt, _ := eng.Catalog().Table("r")
		for i := 0; i < 1000; i++ {
			if err := lt.Insert(types.Row{types.NewInt(int64(i % 50)), types.NewInt(int64(i))}); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			if err := rt.Insert(types.Row{types.NewInt(int64(i % 50)), types.NewInt(int64(i))}); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	query := "SELECT COUNT(*) FROM l, r WHERE l.K = r.K"
	for _, bc := range []struct {
		name string
		opts plan.Options
	}{
		{"HashJoin", plan.Options{}},
		{"NestedLoop", plan.Options{DisableHashJoin: true}},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			s := setup(bc.opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.QueryContext(context.Background(), query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNavigatorAblation contrasts the parallel workflow navigator
// with the serialised one on the parallel-activity process.
func BenchmarkNavigatorAblation(b *testing.B) {
	apps, err := appsys.BuildScenario()
	if err != nil {
		b.Fatal(err)
	}
	invoker := wfms.InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
		sys, err := apps.System(system)
		if err != nil {
			return nil, err
		}
		return sys.CallContext(context.Background(), task, function, args)
	})
	spec, err := fedfunc.SpecByName("GetSuppQualRelia")
	if err != nil {
		b.Fatal(err)
	}
	input := map[string]types.Value{"supplierno": types.NewInt(3)}
	for _, bc := range []struct {
		name   string
		serial bool
	}{{"Parallel", false}, {"Serial", true}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			eng := wfms.New(invoker, wfms.CostsFromProfile(simlat.DefaultProfile()))
			eng.SetSerial(bc.serial)
			// Deterministic paper-time metric.
			vt := simlat.NewVirtualTask()
			if _, err := eng.RunContext(context.Background(), vt, spec.Process(), input); err != nil {
				b.Fatal(err)
			}
			paperMS := float64(vt.Elapsed()) / float64(simlat.PaperMS)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				task := simlat.NewWallTask(benchScale)
				if _, err := eng.RunContext(context.Background(), task, spec.Process(), input); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(paperMS, "paper-ms/op")
		})
	}
}

// BenchmarkStorageLookup measures indexed point lookups.
func BenchmarkStorageLookup(b *testing.B) {
	tab, err := storage.NewTable("t", types.Schema{
		{Name: "K", Type: types.Integer},
		{Name: "V", Type: types.VarChar},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := tab.Insert(types.Row{types.NewInt(int64(i)), types.NewString("v")}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tab.CreateIndex("K"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := tab.Lookup("K", types.NewInt(int64(i%10000)))
		if err != nil || len(rows) != 1 {
			b.Fatalf("lookup: %v %d", err, len(rows))
		}
	}
}

// BenchmarkWorkflowNavigator measures the workflow engine itself with
// zero simulated costs: pure navigation and container handling.
func BenchmarkWorkflowNavigator(b *testing.B) {
	apps, err := appsys.BuildScenario()
	if err != nil {
		b.Fatal(err)
	}
	invoker := wfms.InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
		sys, err := apps.System(system)
		if err != nil {
			return nil, err
		}
		return sys.CallContext(context.Background(), task, function, args)
	})
	eng := wfms.New(invoker, wfms.Costs{})
	spec, err := fedfunc.SpecByName("BuySuppComp")
	if err != nil {
		b.Fatal(err)
	}
	process := spec.Process()
	input := map[string]types.Value{
		"supplierno": types.NewInt(4),
		"compname":   types.NewString("washer"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunContext(context.Background(), simlat.Free(), process, input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelLateral contrasts sequential Apply with ParallelApply
// over a 16-row lateral batch against GetSuppQualRelia: the wall-mode
// loop shows the real speedup, the paper-ms/op metric the deterministic
// virtual-clock (max-branch) elapsed time per degree of parallelism.
func BenchmarkParallelLateral(b *testing.B) {
	apps, err := appsys.BuildScenario()
	if err != nil {
		b.Fatal(err)
	}
	stack, err := fedfunc.NewStack(fedfunc.ArchUDTF, fedfunc.Options{Apps: apps})
	if err != nil {
		b.Fatal(err)
	}
	eng := stack.Engine()
	eng.SetFunctionCache(true)
	session := eng.NewSession()
	session.MustExecContext(context.Background(), "CREATE TABLE bench_driver (SupplierNo INT)")
	for i := 0; i < 16; i++ {
		session.MustExecContext(context.Background(), fmt.Sprintf("INSERT INTO bench_driver VALUES (%d)", 1+i%8))
	}
	query := "SELECT COUNT(*) FROM bench_driver d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F"
	for _, dop := range []int{1, 2, 4, 8} {
		dop := dop
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			if dop > 1 {
				eng.SetParallelism(dop)
			} else {
				eng.SetParallelism(0)
			}
			defer eng.SetParallelism(0)
			session.SetTask(simlat.Free())
			if _, err := session.QueryContext(context.Background(), query); err != nil { // warm
				b.Fatal(err)
			}
			vt := simlat.NewVirtualTask()
			session.SetTask(vt)
			if _, err := session.QueryContext(context.Background(), query); err != nil {
				b.Fatal(err)
			}
			paperMS := float64(vt.Elapsed()) / float64(simlat.PaperMS)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				task := simlat.NewWallTask(benchScale)
				session.SetTask(task)
				if _, err := session.QueryContext(context.Background(), query); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(paperMS, "paper-ms/op")
		})
	}
}

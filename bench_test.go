// Code micro-benchmarks of the substrate: the SQL parser, the executor's
// joins, storage lookups and the workflow navigator, each with no
// simulated latency, so ns/op and allocs/op measure this implementation.
// The paper's evaluation shapes (Fig. 5, Fig. 6, boot states, parallelism,
// loop scaling, the controller and navigator ablations) are pinned on the
// virtual clock instead — by paperbench's all.golden, the shape tests in
// internal/benchharn and the wfms SetSerial tests — which read the same
// figures on every machine.
package fedwf_test

import (
	"context"
	"testing"

	"fedwf/internal/appsys"
	"fedwf/internal/engine"
	"fedwf/internal/fedfunc"
	"fedwf/internal/plan"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/storage"
	"fedwf/internal/types"
	"fedwf/internal/wfms"
)

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

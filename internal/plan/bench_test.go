package plan

import (
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/exec/batcher"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// BenchmarkCompileSelect compiles a statement of each of fedbench's fed_udtf
// and lateral_batch workloads, under the options that server runs them with,
// and local_join's hash-join aggregation with a HAVING and an ORDER BY added,
// so the aggregate path of the expression compiler is measured too.
func BenchmarkCompileSelect(b *testing.B) {
	cat := catalog.New()
	if _, err := cat.CreateTable("drv", types.Schema{{Name: "SupplierNo", Type: types.Integer}}); err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"l", "r"} {
		if _, err := cat.CreateTable(name, types.Schema{{Name: "K", Type: types.Integer}, {Name: "V", Type: types.Integer}, {Name: "W", Type: types.Integer}}); err != nil {
			b.Fatal(err)
		}
	}
	stub := func(name string, params []types.Column, returns types.Schema) {
		if err := cat.RegisterFunc(&catalog.GoFunc{FName: name, FParams: params, FReturns: returns,
			Fn: func(catalog.QueryRunner, *simlat.Task, []types.Value) (*types.Table, error) {
				return types.NewTable(returns), nil
			}}); err != nil {
			b.Fatal(err)
		}
	}
	ints := func(names ...string) types.Schema {
		out := make(types.Schema, len(names))
		for i, n := range names {
			out[i] = types.Column{Name: n, Type: types.Integer}
		}
		return out
	}
	stub("GetSubCompDiscounts", ints("CompNo", "Discount"), ints("SubCompNo", "SupplierNo"))
	stub("GetSuppQualRelia", ints("SupplierNo"), ints("Qual", "Relia"))
	for _, st := range []struct {
		name, sql string
		opts      Options
	}{
		{"fed_udtf", "SELECT * FROM TABLE (GetSubCompDiscounts(5, 10)) AS R", Options{}},
		{"lateral_batch", "SELECT d.SupplierNo, F.Qual, F.Relia FROM drv d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F WHERE d.SupplierNo >= 2",
			Options{Parallelism: 2, Batch: batcher.Policy{Count: 8}}},
		{"local_join_agg", "SELECT l.K, COUNT(*), SUM(r.W) FROM l, r WHERE l.K = r.K AND l.V >= 3 GROUP BY l.K HAVING COUNT(*) > 1 ORDER BY SUM(r.W) DESC, 1",
			Options{}},
	} {
		sel, err := sqlparser.ParseSelect(st.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CompileSelectOpts(cat, sel, nil, st.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

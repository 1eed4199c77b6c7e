package sqlparser

import "testing"

// benchStatements are a statement of each of fedbench's fed_udtf and
// lateral_batch workloads.
var benchStatements = []struct{ name, sql string }{
	{"fed_udtf", "SELECT * FROM TABLE (GetSubCompDiscounts(5, 10)) AS R"},
	{"lateral_batch", "SELECT d.SupplierNo, F.Qual, F.Relia FROM drv d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F WHERE d.SupplierNo >= 2"},
}

func BenchmarkParse(b *testing.B) {
	for _, st := range benchStatements {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(st.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

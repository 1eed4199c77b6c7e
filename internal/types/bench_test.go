package types

import (
	"math"
	"testing"
)

var sinkHash uint64

// Value.Hash is called once per row by every hash join (build and probe),
// GROUP BY, DISTINCT and index lookup.
func BenchmarkValueHash(b *testing.B) {
	for _, c := range []struct {
		name string
		v    Value
	}{
		{"null", Null},
		{"bool", NewBool(true)},
		{"int", NewInt(123456789)},
		{"double_integral", NewFloat(42)},
		{"double", NewFloat(math.Pi)},
		{"varchar16", NewString("row-000000001234")},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkHash += c.v.Hash()
			}
		})
	}
}

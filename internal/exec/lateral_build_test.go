package exec

import (
	"fedwf/internal/exec/batcher"
	"fedwf/internal/types"
)

// lateralOp builds the lateral join of left and right that the tests and
// benchmarks of every execution mode share: inner or outer (with On), dop
// workers when dop > 1, and chunks of batch outer rows when batch >= 2.
func lateralOp(left, right Operator, sch types.Schema, outer bool, on Expr, dop, batch int) Operator {
	return &Apply{Left: left, Right: right, Sch: sch, Outer: outer, On: on, DOP: dop, Batch: batcher.Policy{Count: batch}}
}

package plan

import (
	"fedwf/internal/catalog"
	"fedwf/internal/exec"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// CompileRowExpr compiles a scalar expression against the rows of a single
// relation exposed under the given correlation name (the engine's UPDATE,
// DELETE, and INSERT ... VALUES paths). With a nil schema only literals,
// operators, and scalar functions are permitted.
func CompileRowExpr(cat *catalog.Catalog, corr string, schema types.Schema, e sqlparser.Expr) (exec.Expr, error) {
	c := &compiler{cat: cat}
	if schema != nil {
		c.appendScope(corr, schema)
	}
	return c.compileExpr(e)
}

// PointKey finds, among the AND-connected conjuncts of a single-relation
// WHERE clause, one the relation's hash index can answer (pointKey — the
// rule SELECT plans by), so UPDATE and DELETE examine that index bucket
// instead of every row. indexed reports whether a column has an index.
func PointKey(corr string, schema types.Schema, where sqlparser.Expr, indexed func(column string) bool) (string, types.Value, bool) {
	c := &compiler{}
	c.appendScope(corr, schema)
	for _, cj := range splitConjuncts(where) {
		if idx, key, ok := c.pointKey(cj, 0, indexed); ok {
			return c.cols[idx].name, key, true
		}
	}
	return "", types.Null, false
}

package plan

import (
	"fmt"

	"fedwf/internal/exec"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// compileUnion plans a UNION chain: every member compiles independently
// (members see their own FROM scopes only), the results concatenate left
// to right with duplicate elimination after every plain UNION, and the
// chain-level ORDER BY / LIMIT applies to the combined output.
func (c *compiler) compileUnion(sel *sqlparser.Select) (exec.Operator, error) {
	head := *sel
	head.Unions, head.OrderBy, head.Limit, head.Offset = nil, nil, -1, 0
	members := make([]*sqlparser.Select, 0, 1+len(sel.Unions))
	members = append(members, &head)
	for _, u := range sel.Unions {
		members = append(members, u.Query)
	}

	ops := make([]exec.Operator, len(members))
	var schema types.Schema
	for i, m := range members {
		sub := &compiler{cat: c.cat, params: c.params, opts: c.opts, viewDepth: c.viewDepth}
		op, err := sub.compileSelect(m)
		if err != nil {
			return nil, fmt.Errorf("plan: UNION member %d: %w", i+1, err)
		}
		if i == 0 {
			schema = op.Schema().Clone()
		} else if len(op.Schema()) != len(schema) {
			return nil, fmt.Errorf("plan: UNION member %d has %d columns, first member has %d",
				i+1, len(op.Schema()), len(schema))
		}
		ops[i] = &BindReset{Child: op}
	}

	result := ops[0]
	for i, u := range sel.Unions {
		result = &exec.Concat{Inputs: []exec.Operator{result, ops[i+1]}}
		if !u.All {
			result = &exec.Distinct{Child: result}
		}
	}

	if len(sel.OrderBy) > 0 {
		keys := make([]exec.SortKey, 0, len(sel.OrderBy))
		for _, o := range sel.OrderBy {
			i, err := outputKey(o.Expr, schema)
			if err != nil {
				return nil, err
			}
			if i < 0 {
				return nil, fmt.Errorf("plan: ORDER BY on a UNION must name an output column or position, got %s", o.Expr.String())
			}
			keys = append(keys, exec.SortKey{Expr: exec.Col{Idx: i, Name: schema[i].Name}, Desc: o.Desc})
		}
		result = &exec.Sort{Child: result, Keys: keys}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		result = &exec.Limit{Child: result, Count: sel.Limit, Skip: sel.Offset}
	}
	return result, nil
}

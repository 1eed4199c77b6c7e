package plan

import (
	"fmt"
	"strings"

	"fedwf/internal/sqlparser"
)

// reorderFromItems performs a stable topological sort of the FROM items
// by their lateral dependencies: a TABLE() argument referencing another
// item's correlation forces that item to be planned first, regardless of
// the order the user wrote. Join trees keep their internal structure and
// participate as single units. Cyclic references are rejected — that is
// the mapping case SQL genuinely cannot express (Sect. 3 of the paper).
func reorderFromItems(items []sqlparser.FromItem) ([]sqlparser.FromItem, error) {
	if len(items) < 2 {
		return items, nil
	}
	// The correlations each item exposes.
	var owners []corrOwner
	for i, item := range items {
		owners = collectCorrs(item, i, owners)
	}
	// Dependencies: item i depends on item j when one of its table
	// function arguments references a correlation owned by j.
	deps := make([][]int, len(items))
	for i, item := range items {
		seen := make(map[int]bool)
		forEachFuncArg(item, func(arg sqlparser.Expr) {
			walkRefs(arg, func(ref *sqlparser.ColumnRef) {
				if ref.Qualifier == "" {
					return // unqualified references keep syntactic order
				}
				j := ownerOf(owners, ref.Qualifier)
				if j >= 0 && j != i && !seen[j] {
					seen[j] = true
					deps[i] = append(deps[i], j)
				}
			})
		})
	}
	// Stable Kahn's algorithm: among ready items, always pick the one
	// written first.
	indeg := make([]int, len(items))
	radj := make([][]int, len(items))
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, j := range ds {
			radj[j] = append(radj[j], i)
		}
	}
	out := make([]sqlparser.FromItem, 0, len(items))
	done := make([]bool, len(items))
	for len(out) < len(items) {
		next := -1
		for i := range items {
			if !done[i] && indeg[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("plan: cyclic dependency among table function references in the FROM clause")
		}
		done[next] = true
		out = append(out, items[next])
		for _, i := range radj[next] {
			indeg[i]--
		}
	}
	return out, nil
}

// corrOwner is one correlation name and the FROM item exposing it.
type corrOwner struct {
	corr string
	item int
}

// collectCorrs appends the correlation names item i exposes to into.
func collectCorrs(item sqlparser.FromItem, i int, into []corrOwner) []corrOwner {
	switch it := item.(type) {
	case *sqlparser.JoinRef:
		into = collectCorrs(it.Left, i, into)
		return collectCorrs(it.Right, i, into)
	default:
		if corr := item.Corr(); corr != "" {
			into = append(into, corrOwner{corr, i})
		}
		return into
	}
}

// ownerOf is the item exposing the correlation corr, matched without
// regard to case, or -1; of two items exposing it (an error the compiler
// reports), the later.
func ownerOf(owners []corrOwner, corr string) int {
	for k := len(owners) - 1; k >= 0; k-- {
		if strings.EqualFold(owners[k].corr, corr) {
			return owners[k].item
		}
	}
	return -1
}

// forEachFuncArg visits every table-function argument within an item
// (including inside join trees).
func forEachFuncArg(item sqlparser.FromItem, visit func(sqlparser.Expr)) {
	switch it := item.(type) {
	case *sqlparser.TableFuncRef:
		for _, a := range it.Args {
			visit(a)
		}
	case *sqlparser.JoinRef:
		forEachFuncArg(it.Left, visit)
		forEachFuncArg(it.Right, visit)
	}
}

// Package batcher holds the executor's batch policy: how many outer rows a
// lateral join gathers into one chunk, flushed as one set-oriented call of
// its right-hand function.
package batcher

import "fmt"

// Policy says how large a chunk may grow. The zero value — and any Count
// below 2 — disables batching: every row is its own call, the per-row path.
type Policy struct {
	// Count is the most outer rows one chunk holds.
	Count int
}

// Enabled reports whether the policy can ever hold more than one row.
func (p Policy) Enabled() bool { return p.Count >= 2 }

// String renders the policy for plan explanations.
func (p Policy) String() string {
	if !p.Enabled() {
		return "off"
	}
	return fmt.Sprintf("count=%d", p.Count)
}

package exec

import (
	"fmt"
	"sync"

	"fedwf/internal/resil"
)

// Warnings collects statement-level warnings — today, the graceful
// degradation notices emitted when an optional lateral branch is replaced
// by NULL padding because its application system is shedding. Safe for
// concurrent use (parallel Apply workers share one instance).
type Warnings struct {
	mu      sync.Mutex
	list    []string
	partial bool
}

// Add appends a warning.
func (w *Warnings) Add(msg string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.list = append(w.list, msg)
	w.mu.Unlock()
}

// MarkPartial flags the result as partial and records why.
func (w *Warnings) MarkPartial(msg string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.partial = true
	w.list = append(w.list, msg)
	w.mu.Unlock()
}

// Partial reports whether the result was degraded.
func (w *Warnings) Partial() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.partial
}

// List returns a copy of the collected warnings.
func (w *Warnings) List() []string {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.list...)
}

// degrade decides whether an outer (LEFT) lateral branch's failure may be
// absorbed as NULL padding: degradation must be enabled on the statement,
// the operator must have outer semantics (so a missing match already has
// defined NULL semantics), and the error must mark the downstream system
// as shedding or unreachable — never a semantic error. When absorbed, the
// statement's warnings are flagged partial.
func degrade(ctx *Ctx, outer bool, err error) bool {
	if ctx == nil || !ctx.AllowDegraded || !outer || !resil.Degradable(err) {
		return false
	}
	ctx.Warnings.MarkPartial(fmt.Sprintf("partial result: optional branch degraded: %v", err))
	return true
}

package engine

import (
	"sync"

	"fedwf/internal/catalog"
	"fedwf/internal/exec"
	"fedwf/internal/plan"
)

// bodyCache keeps one plan of each function body the engine has planned,
// under the planner options it was last planned with, for one catalog
// generation: the plan-once rule of DESIGN Sect. 5. A call under other
// options plans the body again and its plan replaces the kept one, so a
// session that cycles SET BATCH_SIZE keeps one plan per body. The kept
// plans are never opened; a call runs a Clone, which shares their
// plan-time fields and has iteration state of its own. Plans are kept only
// for bodies of functions in the catalog — no statement text is keyed —
// and a generation change drops every one of them.
type bodyCache struct {
	mu    sync.RWMutex
	gen   uint64
	plans map[*catalog.Body]bodyPlan
}

// bodyPlan is a body's kept plan and the options it was planned with.
type bodyPlan struct {
	opts plan.Options
	op   exec.Operator
}

// plan returns a fresh copy of b's plan under opts, planning b first
// unless a plan compiled at the catalog's current generation is kept.
func (c *bodyCache) plan(cat *catalog.Catalog, b *catalog.Body, opts plan.Options) (exec.Operator, error) {
	// Read the generation before planning: a change made during planning
	// moves it, so the plan is kept under a generation already past.
	gen := cat.Generation()
	if op := c.kept(b, opts, gen); op != nil {
		return op.Clone(), nil
	}
	op, err := plan.CompileSelectOpts(cat, b.Select, b.Params, opts)
	if err != nil {
		return nil, err
	}
	c.keep(b, opts, gen, op)
	return op.Clone(), nil
}

// keep makes op, planned under opts at generation gen, b's kept plan. A
// plan of a generation already past is not kept.
func (c *bodyCache) keep(b *catalog.Body, opts plan.Options, gen uint64, op exec.Operator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.gen || c.plans == nil {
		c.gen, c.plans = gen, make(map[*catalog.Body]bodyPlan)
	}
	if gen == c.gen {
		c.plans[b] = bodyPlan{opts, op}
	}
}

// kept returns the plan kept for b under opts at generation gen, or nil.
func (c *bodyCache) kept(b *catalog.Body, opts plan.Options, gen uint64) exec.Operator {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p, ok := c.plans[b]; ok && c.gen == gen && p.opts == opts {
		return p.op
	}
	return nil
}

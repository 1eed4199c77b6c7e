package engine

import (
	"fedwf/internal/catalog"
	"fedwf/internal/exec"
	"fedwf/internal/plan"
)

// BodyCacheSize returns how many body plans e's body cache keeps.
func BodyCacheSize(e *Engine) int {
	c := &e.bodies
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// sqlBody returns the body of the SQL function name in s's catalog.
func sqlBody(s *Session, name string) *catalog.Body {
	fn, err := s.eng.cat.Func(name)
	if err != nil {
		panic(err)
	}
	return fn.(*catalog.SQLFunc).Body
}

// KeptBodyPlan returns the plan the engine keeps for the SQL function
// name's body under s's planner options, or nil when it keeps none.
func KeptBodyPlan(s *Session, name string) exec.Operator {
	return s.eng.bodies.kept(sqlBody(s, name), s.opts, s.eng.cat.Generation())
}

// ExplainBody renders the plan a call of the SQL function name runs in
// s, and the plan the body compiles to afresh under s's options.
func ExplainBody(s *Session, name string) (kept, fresh string, err error) {
	b := sqlBody(s, name)
	op, err := s.eng.bodies.plan(s.eng.cat, b, s.opts)
	if err != nil {
		return "", "", err
	}
	ref, err := plan.CompileSelectOpts(s.eng.cat, b.Select, b.Params, s.opts)
	if err != nil {
		return "", "", err
	}
	return exec.ExplainString(op), exec.ExplainString(ref), nil
}

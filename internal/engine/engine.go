// Package engine ties the SQL front end, planner, executor, and catalog
// into the FDBS database engine used as the paper's integration server
// core. It offers an embedded API (sessions with Exec/Query), executes
// DDL including the SQL/MED statements and CREATE FUNCTION (registering
// SQL and external UDTFs), and implements catalog.QueryRunner so UDTF
// bodies can run nested SQL.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"fedwf/internal/catalog"
	"fedwf/internal/exec"
	"fedwf/internal/obs"
	"fedwf/internal/obs/stats"
	"fedwf/internal/plan"
	"fedwf/internal/resil"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
)

// ExternalImpl is a host-provided table-function implementation, referenced
// by CREATE FUNCTION ... LANGUAGE EXTERNAL NAME '<name>'.
type ExternalImpl func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error)

// Engine is one FDBS instance.
type Engine struct {
	cat *catalog.Catalog

	mu              sync.RWMutex
	externals       map[string]ExternalImpl
	wrappers        map[string]catalog.WrapperFactory
	compositionCost time.Duration
	planOpts        plan.Options
	funcCache       bool
	stmtTimeout     time.Duration
	retry           resil.RetryPolicy
	allowPartial    bool
	planStats       *stats.PlanStore

	bodies bodyCache
}

// Option configures an engine at construction time; the Set* methods
// reconfigure it at run time. Planner settings (DOP, batch size, hash-join
// ablation) are the defaults a session copies when it opens; SET changes
// only the session's copy.
type Option func(*Engine)

// WithCompositionCost sets the simulated cost of composing independent
// result sets in the executor (joins between independent FROM items); zero
// disables the accounting.
func WithCompositionCost(d time.Duration) Option { return func(e *Engine) { e.compositionCost = d } }

// WithRetryPolicy sets the default retry policy; its Budget seeds each
// statement's retry budget (shared by every federated call the statement
// makes).
func WithRetryPolicy(p resil.RetryPolicy) Option { return func(e *Engine) { e.retry = p } }

// WithStatementTimeout sets the default per-statement virtual-time
// deadline for new sessions; zero disables it. Sessions can override it
// with SET STATEMENT_TIMEOUT <ms>.
func WithStatementTimeout(d time.Duration) Option { return func(e *Engine) { e.stmtTimeout = d } }

// WithPartialResults lets new sessions degrade optional (LEFT lateral)
// branches to NULL padding when their application system is shedding,
// instead of failing the statement. Degraded results carry warnings and
// the Partial flag.
func WithPartialResults(enabled bool) Option { return func(e *Engine) { e.allowPartial = enabled } }

// New returns an empty engine configured by opts.
func New(opts ...Option) *Engine {
	e := &Engine{
		cat:       catalog.New(),
		externals: make(map[string]ExternalImpl),
		wrappers:  make(map[string]catalog.WrapperFactory),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Catalog exposes the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// SetPlanStats installs (or, with nil, removes) the per-plan-shape
// actuals store: EXPLAIN ANALYZE records each operator's measured rows,
// loops, and busy time there, and plain EXPLAIN annotates its output with
// the last measured run of the same plan shape.
func (e *Engine) SetPlanStats(ps *stats.PlanStore) {
	e.mu.Lock()
	e.planStats = ps
	e.mu.Unlock()
}

// PlanStats returns the installed per-plan-shape actuals store, or nil.
func (e *Engine) PlanStats() *stats.PlanStore {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.planStats
}

// RegisterExternal installs a host implementation under the given external
// name, making it available to CREATE FUNCTION ... LANGUAGE EXTERNAL.
func (e *Engine) RegisterExternal(name string, impl ExternalImpl) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := e.externals[key]; ok {
		return fmt.Errorf("engine: external implementation %s already registered", name)
	}
	e.externals[key] = impl
	return nil
}

// RegisterWrapperImpl links a wrapper implementation into the server; a
// later CREATE WRAPPER statement activates it in the catalog.
func (e *Engine) RegisterWrapperImpl(name string, factory catalog.WrapperFactory) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := e.wrappers[key]; ok {
		return fmt.Errorf("engine: wrapper implementation %s already registered", name)
	}
	e.wrappers[key] = factory
	return nil
}

// SetPlanOptions configures the planner (e.g. the hash-join ablation) for
// sessions opened from now on.
func (e *Engine) SetPlanOptions(opts plan.Options) {
	e.mu.Lock()
	e.planOpts = opts
	e.mu.Unlock()
}

// SetFunctionCache enables per-statement memoisation of table-function
// results: repeated lateral invocations with identical arguments reuse
// the first result. Only enable it for deterministic functions.
func (e *Engine) SetFunctionCache(enabled bool) {
	e.mu.Lock()
	e.funcCache = enabled
	e.mu.Unlock()
}

// SetParallelism sets the intra-query parallelism new sessions start
// with: n > 1 runs lateral joins over side-effect-free right sides on n
// workers, n <= 1 keeps sequential plans (the default), and n < 0 selects
// runtime.GOMAXPROCS(0). A session changes its own with SET PARALLELISM.
func (e *Engine) SetParallelism(n int) {
	e.mu.Lock()
	e.planOpts.Parallelism = resolveDOP(n)
	e.mu.Unlock()
}

// resolveDOP maps a requested degree of parallelism to the one planned:
// negative selects runtime.GOMAXPROCS(0).
func resolveDOP(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Parallelism returns the degree of parallelism new sessions start with.
func (e *Engine) Parallelism() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.planOpts.Parallelism
}

// SetBatchSize sets the lateral batch size new sessions start with: n >= 2
// makes side-effect-free lateral FuncScan right sides gather outer rows
// into chunks of up to n, each flushed as one batched federated call;
// n <= 1 keeps per-row calls (the default). A session changes its own with
// SET BATCH_SIZE.
func (e *Engine) SetBatchSize(n int) {
	e.mu.Lock()
	e.planOpts.Batch.Count = n
	e.mu.Unlock()
}

// BatchSize returns the lateral batch size new sessions start with.
func (e *Engine) BatchSize() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.planOpts.Batch.Count
}

// RetryPolicy returns the engine's default retry policy.
func (e *Engine) RetryPolicy() resil.RetryPolicy {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.retry
}

// StatementTimeout returns the default per-statement deadline.
func (e *Engine) StatementTimeout() time.Duration {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stmtTimeout
}

// PartialResults reports whether graceful degradation is on by default.
func (e *Engine) PartialResults() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.allowPartial
}

// stmtState is the per-statement state shared by the top-level query and
// every nested UDTF-body statement it spawns: one warning sink (so a
// degraded nested branch flags the whole statement partial), the
// degradation switch, and the planner options of the session that began
// it. It rides the context so it crosses the engine -> exec -> catalog ->
// engine recursion without widening QueryRunner.
type stmtState struct {
	warnings     *exec.Warnings
	allowPartial bool
	// sess began the statement. A nested statement on another engine (a
	// pushed-down remote query) plans with that engine's options.
	sess *Session
}

type stmtStateKey struct{}

func stmtStateFrom(ctx context.Context) *stmtState {
	st, _ := ctx.Value(stmtStateKey{}).(*stmtState)
	return st
}

// RunSelectContext runs a SELECT that declares no parameters under the
// statement's deadline: a pushed-down remote query, or the query of an
// INSERT ... SELECT. Its plan is not kept.
func (e *Engine) RunSelectContext(ctx context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, error) {
	tab, _, err := e.runSelect(ctx, sel, task)
	return tab, err
}

// RunBodyContext implements catalog.QueryRunner: a function body runs on a
// copy of the plan the engine keeps for it (bodyCache), opened on bind.
func (e *Engine) RunBodyContext(ctx context.Context, body *catalog.Body, bind []types.Value, task *simlat.Task) (*types.Table, error) {
	env := e.stmtEnv(ctx)
	op, err := e.bodies.plan(e.cat, body, env.opts)
	if err != nil {
		return nil, err
	}
	tab, _, err := e.run(ctx, env, op, bind, task)
	return tab, err
}

// runSelect is RunSelectContext plus the statement's function-cache
// statistics (zero when the cache is disabled).
func (e *Engine) runSelect(ctx context.Context, sel *sqlparser.Select, task *simlat.Task) (*types.Table, exec.CacheStats, error) {
	env := e.stmtEnv(ctx)
	op, err := plan.CompileSelectOpts(e.cat, sel, nil, env.opts)
	if err != nil {
		return nil, exec.CacheStats{}, err
	}
	return e.run(ctx, env, op, nil, task)
}

// runEnv is what a statement's plans are compiled and run with.
type runEnv struct {
	st    *stmtState
	opts  plan.Options
	cc    time.Duration
	cache bool
}

// stmtEnv returns the environment of the statement on ctx: the engine's
// settings, and the planner options of the session that began it, or the
// engine's defaults for a statement begun on another engine or none.
func (e *Engine) stmtEnv(ctx context.Context) runEnv {
	e.mu.RLock()
	env := runEnv{opts: e.planOpts, cc: e.compositionCost, cache: e.funcCache}
	partial := e.allowPartial
	e.mu.RUnlock()
	env.st = stmtStateFrom(ctx)
	if env.st == nil {
		env.st = &stmtState{warnings: &exec.Warnings{}, allowPartial: partial}
	} else if env.st.sess.eng == e {
		env.opts = env.st.sess.opts
	}
	return env
}

// run runs op with params as its bound row.
func (e *Engine) run(ctx context.Context, env runEnv, op exec.Operator, params types.Row, task *simlat.Task) (*types.Table, exec.CacheStats, error) {
	ectx := &exec.Ctx{
		Task:            task,
		Runner:          e,
		CompositionCost: env.cc,
		Params:          params,
		Context:         ctx,
		Warnings:        env.st.warnings,
		AllowDegraded:   env.st.allowPartial,
	}
	var fc *exec.FuncCache
	if env.cache {
		fc = exec.NewFuncCache()
		ectx.FuncCache = fc
	}
	tab, err := exec.Run(op, ectx)
	return tab, fc.Snapshot(), err
}

// Session is one client connection to the engine. Sessions are cheap; the
// task meter charges simulated costs for the experiments (defaults to a
// free meter).
type Session struct {
	eng  *Engine
	task *simlat.Task
	// lastCacheStats records the function-cache counters of the most
	// recent top-level query (zero when the cache is disabled).
	lastCacheStats exec.CacheStats
	// stmtTimeout, allowPartial and the planner options start from the
	// engine defaults and are overridable per session via SET
	// STATEMENT_TIMEOUT / PARTIAL_RESULTS / PARALLELISM / BATCH_SIZE.
	stmtTimeout  time.Duration
	allowPartial bool
	opts         plan.Options
}

// NewSession opens a session on a free meter.
func (e *Engine) NewSession() *Session { return e.NewSessionOn(simlat.Free()) }

// NewSessionOn opens a session whose statements charge task.
func (e *Engine) NewSessionOn(task *simlat.Task) *Session {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &Session{eng: e, task: task, stmtTimeout: e.stmtTimeout, allowPartial: e.allowPartial, opts: e.planOpts}
}

// SetTask attaches the cost meter used by subsequent statements.
func (s *Session) SetTask(t *simlat.Task) { s.task = t }

// Task returns the session's current cost meter.
func (s *Session) Task() *simlat.Task { return s.task }

// Engine returns the engine this session talks to.
func (s *Session) Engine() *Engine { return s.eng }

// LastCacheStats returns the function-cache/singleflight counters of the
// most recently executed top-level query on this session (all zero when
// the cache is disabled). Nested UDTF-body statements keep their own
// caches and are not included.
func (s *Session) LastCacheStats() exec.CacheStats { return s.lastCacheStats }

// StatementTimeout returns this session's per-statement deadline.
func (s *Session) StatementTimeout() time.Duration { return s.stmtTimeout }

// Parallelism returns this session's degree of parallelism.
func (s *Session) Parallelism() int { return s.opts.Parallelism }

// BatchSize returns this session's lateral batch size.
func (s *Session) BatchSize() int { return s.opts.Batch.Count }

// beginStmt anchors the statement's resilience state on the context:
// the virtual-time deadline (session timeout, tightened by any relative
// transport timeout already on the context), the retry budget, and the
// shared warning sink. Statements arriving with a deadline already
// anchored (nested execution) keep it.
func (s *Session) beginStmt(ctx context.Context) (context.Context, *stmtState) {
	if st := stmtStateFrom(ctx); st != nil {
		return ctx, st // nested statement: share the outer statement's state
	}
	limit := s.stmtTimeout
	if d, ok := resil.TimeoutFrom(ctx); ok && d > 0 && (limit <= 0 || d < limit) {
		limit = d
	}
	if limit > 0 {
		if _, ok := resil.DeadlineAtFrom(ctx); !ok {
			ctx = resil.WithDeadlineAt(ctx, s.task.Elapsed()+limit)
		}
	}
	if b := s.eng.RetryPolicy().Budget; b > 0 && resil.BudgetFrom(ctx) == nil {
		ctx = resil.WithBudget(ctx, resil.NewBudget(b))
	}
	st := &stmtState{warnings: &exec.Warnings{}, allowPartial: s.allowPartial, sess: s}
	return context.WithValue(ctx, stmtStateKey{}, st), st
}

// Result is the outcome of one statement.
type Result struct {
	Table        *types.Table // non-nil for queries, EXPLAIN and SHOW
	RowsAffected int
	Message      string
	// Warnings lists statement-level warnings (e.g. degraded branches);
	// Partial marks a result in which an optional branch was NULL-padded
	// because its application system was shedding.
	Warnings []string
	Partial  bool
}

// QueryContext executes a SELECT under the statement deadline and retry
// budget carried (or anchored) on ctx, returning its result table.
func (s *Session) QueryContext(ctx context.Context, sql string) (*types.Table, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	tab, _, err := s.execSelect(ctx, sel, "")
	return tab, err
}

// execSelect runs a SELECT as one statement: it begins the statement, runs
// it inside the engine.statement span and keeps its function-cache
// counters for LastCacheStats. The span's sql attribute is text, the
// statement as it arrived, or the rendered parse when it arrived parsed
// (text is empty).
func (s *Session) execSelect(ctx context.Context, sel *sqlparser.Select, text string) (*types.Table, *stmtState, error) {
	ctx, state := s.beginStmt(ctx)
	if text == "" {
		text = sel.String()
	}
	sp := obs.StartSpan(s.task, "engine.statement", obs.Attr{Key: "sql", Value: text})
	tab, cache, err := s.eng.runSelect(ctx, sel, s.task)
	sp.End(s.task)
	s.lastCacheStats = cache
	return tab, state, err
}

// ExecContext parses and executes any single statement under ctx. A
// SELECT's engine.statement span carries sql as it arrived: the text the
// statistics warehouse, the journal and the slow log record.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.execStmt(ctx, stmt, sql)
}

// ExecScriptContext executes a semicolon-separated statement sequence
// under ctx, stopping at the first error.
func (s *Session) ExecScriptContext(ctx context.Context, sql string) ([]*Result, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(stmts))
	for _, stmt := range stmts {
		r, err := s.ExecStmtContext(ctx, stmt)
		if err != nil {
			return results, fmt.Errorf("engine: executing %q: %w", stmt.String(), err)
		}
		results = append(results, r)
	}
	return results, nil
}

// MustExecContext executes a statement under ctx and panics on error;
// for fixtures whose statements are statically known to be valid.
func (s *Session) MustExecContext(ctx context.Context, sql string) *Result {
	r, err := s.ExecContext(ctx, sql)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecStmtContext executes one parsed statement under ctx.
func (s *Session) ExecStmtContext(ctx context.Context, stmt sqlparser.Statement) (*Result, error) {
	return s.execStmt(ctx, stmt, "")
}

// execStmt executes one parsed statement; text is the statement as it
// arrived, or empty when it arrived parsed.
func (s *Session) execStmt(ctx context.Context, stmt sqlparser.Statement, text string) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlparser.Select:
		tab, state, err := s.execSelect(ctx, st, text)
		if err != nil {
			return nil, err
		}
		return &Result{
			Table:        tab,
			RowsAffected: tab.Len(),
			Warnings:     state.warnings.List(),
			Partial:      state.warnings.Partial(),
		}, nil

	case *sqlparser.Set:
		switch st.Option {
		case "PARALLELISM":
			s.opts.Parallelism = resolveDOP(int(st.Value))
			return &Result{Message: fmt.Sprintf("parallelism set to %d", s.opts.Parallelism)}, nil
		case "BATCH_SIZE":
			s.opts.Batch.Count = int(st.Value)
			if !s.opts.Batch.Enabled() {
				return &Result{Message: "batching disabled"}, nil
			}
			return &Result{Message: fmt.Sprintf("batch size set to %d", s.opts.Batch.Count)}, nil
		case "STATEMENT_TIMEOUT":
			s.stmtTimeout = time.Duration(st.Value) * simlat.PaperMS
			if st.Value <= 0 {
				s.stmtTimeout = 0
				return &Result{Message: "statement timeout disabled"}, nil
			}
			return &Result{Message: fmt.Sprintf("statement timeout set to %d ms", st.Value)}, nil
		case "PARTIAL_RESULTS":
			s.allowPartial = st.Value != 0
			if s.allowPartial {
				return &Result{Message: "partial results enabled"}, nil
			}
			return &Result{Message: "partial results disabled"}, nil
		default:
			return nil, fmt.Errorf("engine: unknown option SET %s", st.Option)
		}

	case *sqlparser.CreateTable:
		schema := make(types.Schema, len(st.Columns))
		var pk string
		for i, col := range st.Columns {
			schema[i] = types.Column{Name: col.Name, Type: col.Type}
			if col.PrimaryKey {
				if pk != "" {
					return nil, fmt.Errorf("engine: table %s declares multiple primary keys", st.Name)
				}
				pk = col.Name
			}
		}
		tab, err := s.eng.cat.CreateTable(st.Name, schema)
		if err != nil {
			return nil, err
		}
		if pk != "" {
			if err := s.eng.cat.CreateIndex(tab.Name(), pk); err != nil {
				return nil, err
			}
		}
		return &Result{Message: "table " + st.Name + " created"}, nil

	case *sqlparser.DropTable:
		if err := s.eng.cat.DropTable(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "table " + st.Name + " dropped"}, nil

	case *sqlparser.CreateView:
		// Validate the defining query now, as with CREATE FUNCTION.
		if err := plan.ValidateView(s.eng.cat, st.Query, s.opts); err != nil {
			return nil, fmt.Errorf("engine: view %s does not compile: %w", st.Name, err)
		}
		if err := s.eng.cat.CreateView(st.Name, st.Query); err != nil {
			return nil, err
		}
		return &Result{Message: "view " + st.Name + " created"}, nil

	case *sqlparser.DropView:
		if err := s.eng.cat.DropView(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "view " + st.Name + " dropped"}, nil

	case *sqlparser.CreateIndex:
		if err := s.eng.cat.CreateIndex(st.Table, st.Column); err != nil {
			return nil, err
		}
		return &Result{Message: "index " + st.Name + " created"}, nil

	case *sqlparser.Insert:
		return s.execInsert(ctx, st)

	case *sqlparser.Update:
		return s.execUpdate(st)

	case *sqlparser.Delete:
		return s.execDelete(st)

	case *sqlparser.CreateFunction:
		return s.execCreateFunction(st)

	case *sqlparser.DropFunction:
		if err := s.eng.cat.DropFunc(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "function " + st.Name + " dropped"}, nil

	case *sqlparser.CreateWrapper:
		s.eng.mu.RLock()
		factory, ok := s.eng.wrappers[strings.ToLower(st.Name)]
		s.eng.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("engine: no wrapper implementation linked under %s", st.Name)
		}
		if err := s.eng.cat.RegisterWrapper(st.Name, factory); err != nil {
			return nil, err
		}
		return &Result{Message: "wrapper " + st.Name + " created"}, nil

	case *sqlparser.CreateServer:
		if err := s.eng.cat.CreateServer(st.Name, st.Wrapper, st.Options); err != nil {
			return nil, err
		}
		return &Result{Message: "server " + st.Name + " created"}, nil

	case *sqlparser.CreateNickname:
		if err := s.eng.cat.CreateNicknameContext(ctx, st.Name, st.Server, st.Remote); err != nil {
			return nil, err
		}
		return &Result{Message: "nickname " + st.Name + " created"}, nil

	case *sqlparser.Explain:
		return s.execExplain(ctx, st)

	case *sqlparser.Show:
		return s.execShow(st)

	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (s *Session) execInsert(ctx context.Context, st *sqlparser.Insert) (*Result, error) {
	tab, err := s.eng.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Schema()
	colIdx := make([]int, 0, len(schema))
	if len(st.Columns) == 0 {
		for i := range schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range st.Columns {
			i := schema.ColumnIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("engine: table %s has no column %s", st.Table, c)
			}
			colIdx = append(colIdx, i)
		}
	}

	var rows []types.Row
	if st.Query != nil {
		ctx, _ := s.beginStmt(ctx)
		res, err := s.eng.RunSelectContext(ctx, st.Query, s.task)
		if err != nil {
			return nil, err
		}
		rows = res.Rows
	} else {
		for _, exprRow := range st.Rows {
			row := make(types.Row, len(exprRow))
			for i, ast := range exprRow {
				ce, err := plan.CompileRowExpr(s.eng.cat, "", nil, ast)
				if err != nil {
					return nil, err
				}
				v, err := ce.Eval(nil, nil)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			rows = append(rows, row)
		}
	}
	n := 0
	for _, r := range rows {
		if len(r) != len(colIdx) {
			return nil, fmt.Errorf("engine: INSERT supplies %d values for %d columns", len(r), len(colIdx))
		}
		full := make(types.Row, len(schema))
		for i := range full {
			full[i] = types.Null
		}
		for i, v := range r {
			full[colIdx[i]] = v
		}
		if err := tab.Insert(full); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{RowsAffected: n, Message: fmt.Sprintf("%d rows inserted", n)}, nil
}

func (s *Session) execUpdate(st *sqlparser.Update) (*Result, error) {
	tab, err := s.eng.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Schema()
	pred, err := s.compilePredicate(st.Table, schema, st.Where)
	if err != nil {
		return nil, err
	}
	type setter struct {
		idx  int
		expr exec.Expr
	}
	setters := make([]setter, 0, len(st.Assignments))
	for _, a := range st.Assignments {
		i := schema.ColumnIndex(a.Column)
		if i < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", st.Table, a.Column)
		}
		ce, err := plan.CompileRowExpr(s.eng.cat, st.Table, schema, a.Expr)
		if err != nil {
			return nil, err
		}
		setters = append(setters, setter{idx: i, expr: ce})
	}
	// Without an indexed `col = literal` conjunct col is "", which names
	// no index: the keyed call then examines every row.
	col, key, _ := plan.PointKey(st.Table, schema, st.Where, tab.HasIndex)
	n, err := tab.UpdateKey(col, key, pred, func(r types.Row) (types.Row, error) {
		for _, set := range setters {
			v, err := set.expr.Eval(r, nil)
			if err != nil {
				return nil, err
			}
			r[set.idx] = v
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n, Message: fmt.Sprintf("%d rows updated", n)}, nil
}

func (s *Session) execDelete(st *sqlparser.Delete) (*Result, error) {
	tab, err := s.eng.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Schema()
	pred, err := s.compilePredicate(st.Table, schema, st.Where)
	if err != nil {
		return nil, err
	}
	col, key, _ := plan.PointKey(st.Table, schema, st.Where, tab.HasIndex) // "" when there is none: every row
	n, err := tab.DeleteKey(col, key, pred)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n, Message: fmt.Sprintf("%d rows deleted", n)}, nil
}

// compilePredicate compiles a WHERE clause over one table's rows; a nil
// clause matches everything. A row the clause raises on raises the
// statement's error, as a SELECT's Filter does.
func (s *Session) compilePredicate(table string, schema types.Schema, where sqlparser.Expr) (func(types.Row) (bool, error), error) {
	if where == nil {
		return func(types.Row) (bool, error) { return true, nil }, nil
	}
	ce, err := plan.CompileRowExpr(s.eng.cat, table, schema, where)
	if err != nil {
		return nil, err
	}
	return func(r types.Row) (bool, error) {
		v, err := ce.Eval(r, nil)
		if err != nil {
			return false, err
		}
		return exec.Truthy(v)
	}, nil
}

// DeclareFunction registers a function from its parsed CREATE FUNCTION
// statement — the construction-time entry point used when a stack
// assembles its catalog. DDL carries no deadline, so no context flows in.
func (e *Engine) DeclareFunction(st *sqlparser.CreateFunction) (*Result, error) {
	return e.NewSession().execCreateFunction(st)
}

func (s *Session) execCreateFunction(st *sqlparser.CreateFunction) (*Result, error) {
	params := make([]types.Column, len(st.Params))
	for i, p := range st.Params {
		params[i] = types.Column{Name: p.Name, Type: p.Type}
	}
	switch st.Language {
	case "SQL":
		fn := catalog.NewSQLFunc(st.Name, params, st.Returns.Clone(), st.Body)
		// Validate the body now (DB2 validates at creation time): its first
		// plan surfaces unknown columns, functions, or unsupported
		// constructs, and once the function is registered it is the plan
		// the function's calls start from.
		gen := s.eng.cat.Generation()
		op, err := plan.CompileSelectOpts(s.eng.cat, fn.Body.Select, fn.Body.Params, s.opts)
		if err != nil {
			return nil, fmt.Errorf("engine: body of %s does not compile: %w", st.Name, err)
		}
		if err := s.eng.cat.RegisterFunc(fn); err != nil {
			return nil, err
		}
		s.eng.bodies.keep(fn.Body, s.opts, gen, op)
	case "EXTERNAL":
		s.eng.mu.RLock()
		impl, ok := s.eng.externals[strings.ToLower(st.ExternalName)]
		s.eng.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("engine: no external implementation registered under %s", st.ExternalName)
		}
		fn := &catalog.GoFunc{
			FName:    st.Name,
			FParams:  params,
			FReturns: st.Returns.Clone(),
			Fn:       impl,
		}
		if err := s.eng.cat.RegisterFunc(fn); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("engine: unsupported function language %s", st.Language)
	}
	return &Result{Message: "function " + st.Name + " created"}, nil
}

func (s *Session) execExplain(ctx context.Context, st *sqlparser.Explain) (*Result, error) {
	sel, ok := st.Stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT statements only")
	}
	s.eng.mu.RLock()
	cc := s.eng.compositionCost
	cache := s.eng.funcCache
	s.eng.mu.RUnlock()
	op, err := plan.CompileSelectOpts(s.eng.cat, sel, nil, s.opts)
	if err != nil {
		return nil, err
	}
	// The plan shape (the un-instrumented EXPLAIN text) keys the measured
	// actuals store; compute it before RunAnalyze mutates the tree.
	shape := exec.ExplainString(op)
	planStats := s.eng.PlanStats()
	var text string
	var footer []string
	if st.Analyze {
		// A free session meter would report every operator at 0ms; analysis
		// runs on a fresh virtual meter instead, which also keeps the output
		// deterministic.
		task := s.task
		if task.Mode() == simlat.ModeFree {
			task = simlat.NewVirtualTask()
		}
		ctx, state := s.beginStmt(ctx)
		sp := obs.StartSpan(task, "engine.statement", obs.Attr{Key: "sql", Value: st.String()})
		ectx := &exec.Ctx{
			Task:            task,
			Runner:          s.eng,
			CompositionCost: cc,
			Context:         ctx,
			Warnings:        state.warnings,
			AllowDegraded:   state.allowPartial,
		}
		var fc *exec.FuncCache
		if cache {
			fc = exec.NewFuncCache()
			ectx.FuncCache = fc
		}
		res, root, err := exec.RunAnalyze(op, ectx)
		sp.End(task)
		s.lastCacheStats = fc.Snapshot()
		if err != nil {
			return nil, err
		}
		text = exec.ExplainAnalyzeString(root)
		footer = append(footer, fmt.Sprintf("rows returned: %d", res.Len()))
		if cache {
			cs := s.lastCacheStats
			footer = append(footer, fmt.Sprintf("func cache: hits=%d misses=%d coalesced=%d", cs.Hits, cs.Misses, cs.Coalesced))
		}
		if planStats != nil {
			planStats.Record(shape, exec.CollectActuals(root))
		}
	} else {
		text = shape
		if planStats != nil {
			if actuals, ok := planStats.Lookup(shape); ok {
				text = annotateMeasured(shape, actuals.Ops)
				footer = append(footer,
					fmt.Sprintf("measured: last of %d analyzed run(s) of this plan shape", actuals.Runs))
			}
		}
	}
	tab := types.NewTable(types.Schema{{Name: "PLAN", Type: types.VarChar}})
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		tab.Rows = append(tab.Rows, types.Row{types.NewString(line)})
	}
	for _, line := range footer {
		tab.Rows = append(tab.Rows, types.Row{types.NewString(line)})
	}
	return &Result{Table: tab}, nil
}

// annotateMeasured suffixes each plan line with the last measured actuals
// of the same shape (measured-vs-estimated EXPLAIN). Lines and actuals
// come from the same preorder walk; on any mismatch the plan is returned
// unannotated rather than misattributed.
func annotateMeasured(shape string, ops []stats.OpActual) string {
	lines := strings.Split(strings.TrimRight(shape, "\n"), "\n")
	if len(lines) != len(ops) {
		return shape
	}
	for i, op := range ops {
		lines[i] += fmt.Sprintf(" (last run: rows=%d loops=%d time=%.3fms)",
			op.Rows, op.Loops, float64(op.Busy)/float64(simlat.PaperMS))
	}
	return strings.Join(lines, "\n") + "\n"
}

func (s *Session) execShow(st *sqlparser.Show) (*Result, error) {
	var col string
	var names []string
	switch st.What {
	case "TABLES":
		col, names = "TABLE", s.eng.cat.Tables()
	case "FUNCTIONS":
		col, names = "FUNCTION", s.eng.cat.Funcs()
	case "SERVERS":
		col, names = "SERVER", s.eng.cat.Servers()
	case "VIEWS":
		col, names = "VIEW", s.eng.cat.Views()
	default:
		return nil, fmt.Errorf("engine: unsupported SHOW %s", st.What)
	}
	tab := types.NewTable(types.Schema{{Name: col, Type: types.VarChar}})
	for _, n := range names {
		tab.Rows = append(tab.Rows, types.Row{types.NewString(n)})
	}
	return &Result{Table: tab}, nil
}

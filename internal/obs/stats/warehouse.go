package stats

import (
	"errors"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/types"
)

// Options configures a Warehouse.
type Options struct {
	// MaxStatements bounds the number of live fingerprints; the coldest
	// (least-recently-seen) entry is evicted when a new fingerprint would
	// exceed it. 0 means the default of 512.
	MaxStatements int
}

const defaultMaxStatements = 512

type stmtEntry struct {
	id      string
	query   string // normalized text
	arch    string
	lastSeq uint64

	calls int64
	rows  int64

	errTotal int64
	errors   map[string]int64 // resil taxonomy class → count

	retries      int64
	breakerTrips int64
	sheds        int64
	timeouts     int64
	rpcs         int64
	instances    int64

	cacheHits      int64
	cacheMisses    int64
	cacheCoalesced int64

	batchCalls int64
	batchRows  int64
	batchSlots int64

	paperTotal time.Duration // exact: durations add as integer ns
	wallTotal  time.Duration
	sketch     *Sketch
}

type funcEntry struct {
	name    string
	lastSeq uint64

	calls      int64
	statements int64
	paperTotal time.Duration
	sketch     *Sketch

	// The statement being recorded: its calls of this function and their
	// paper time, folded into sketch as one mean observation.
	stmtCalls int64
	stmtPaper time.Duration
}

// Warehouse is the statement-statistics store. All methods are safe for
// concurrent use.
type Warehouse struct {
	mu      sync.Mutex
	maxStmt int
	seq     uint64 // logical recency clock (no wall time: fedlint virtualclock)
	stmts   map[string]*stmtEntry
	funcs   map[string]*funcEntry

	evictions int64

	// Optional registry series, set by AttachMetrics.
	mRecorded *obs.Counter
	mEvicted  *obs.Counter
}

// NewWarehouse returns an empty warehouse.
func NewWarehouse(opt Options) *Warehouse {
	max := opt.MaxStatements
	if max <= 0 {
		max = defaultMaxStatements
	}
	return &Warehouse{
		maxStmt: max,
		stmts:   make(map[string]*stmtEntry),
		funcs:   make(map[string]*funcEntry),
	}
}

// AttachMetrics registers the warehouse's own series on the shared
// registry: statements recorded, fingerprints evicted, and the live
// fingerprint count, which is read from the warehouse when scraped.
func (w *Warehouse) AttachMetrics(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mRecorded = reg.Counter("fedwf_stats_statements_recorded_total",
		"Statements folded into the statistics warehouse.")
	w.mEvicted = reg.Counter("fedwf_stats_fingerprints_evicted_total",
		"Cold fingerprints evicted from the statistics warehouse.")
	reg.Gauge("fedwf_stats_fingerprints_live_total",
		"Live statement fingerprints in the statistics warehouse.").ReadFrom(func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(len(w.stmts))
	})
}

// ClassifyError maps an error to its resil taxonomy class for the
// errors-by-class breakdown. A nil error returns "".
func ClassifyError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, resil.ErrTimeout):
		return "timeout"
	case errors.Is(err, resil.ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, resil.ErrRetryBudgetExhausted):
		return "retry_budget"
	case errors.Is(err, resil.ErrAppSysUnavailable):
		// AppSysError carriers Is-match this sentinel too.
		return "appsys_unavailable"
	default:
		return "other"
	}
}

// RecordStatement folds one finished statement into the warehouse and
// returns its fingerprint: the warehouse entry's own id string, so callers
// stamping it on further records pin no second copy per statement. The
// statement normalizes into a stack buffer and a known fingerprint is
// found without a string: only a new entry allocates its id and query.
func (w *Warehouse) RecordStatement(st *obs.Statement) string {
	var buf [normBufBytes]byte
	norm := appendNormalized(buf[:0], st.SQL)
	id := fingerprintOf(norm)

	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	e := w.stmts[string(id[:])]
	if e == nil {
		e = &stmtEntry{id: string(id[:]), query: string(norm), sketch: NewSketch(), lastSeq: w.seq}
		w.stmts[e.id] = e
		w.evictColdLocked()
	}
	e.lastSeq = w.seq
	if st.Arch != "" {
		e.arch = st.Arch
	}
	e.calls++
	e.rows += int64(st.Rows)
	if st.Class != "" {
		e.errTotal++
		if e.errors == nil {
			e.errors = make(map[string]int64)
		}
		e.errors[st.Class]++
	}
	e.retries += st.Counters.Retries
	e.breakerTrips += st.Counters.BreakerTrips
	e.sheds += st.Counters.Sheds
	e.timeouts += st.Counters.Timeouts
	e.rpcs += st.Counters.RPCs
	e.instances += st.Counters.Instances
	e.cacheHits += int64(st.CacheHits)
	e.cacheMisses += int64(st.CacheMisses)
	e.cacheCoalesced += int64(st.CacheCoalesced)
	e.batchCalls += st.Counters.BatchCalls
	e.batchRows += st.Counters.BatchRows
	e.batchSlots += st.Counters.BatchSlots
	e.paperTotal += st.Paper
	e.wallTotal += st.Wall
	e.sketch.Observe(float64(st.Paper) / float64(time.Millisecond))

	for _, c := range st.Calls {
		fe := w.funcs[c.Fn]
		if fe == nil {
			fe = &funcEntry{name: c.Fn, sketch: NewSketch()}
			w.funcs[c.Fn] = fe
		}
		if fe.lastSeq != w.seq { // the statement's first call of c.Fn
			fe.lastSeq = w.seq
			fe.statements++
		}
		fe.calls++
		fe.paperTotal += c.Elapsed
		fe.stmtCalls++
		fe.stmtPaper += c.Elapsed
	}
	// One latency observation per function the statement called: the mean
	// of its calls.
	for _, c := range st.Calls {
		if fe := w.funcs[c.Fn]; fe.stmtCalls > 0 {
			fe.sketch.Observe(float64(fe.stmtPaper) / float64(fe.stmtCalls) / float64(time.Millisecond))
			fe.stmtCalls, fe.stmtPaper = 0, 0
		}
	}

	if w.mRecorded != nil {
		w.mRecorded.Inc()
	}
	return e.id
}

// evictColdLocked drops least-recently-seen fingerprints until the bound
// holds. Called with w.mu held.
func (w *Warehouse) evictColdLocked() {
	for len(w.stmts) > w.maxStmt {
		var coldest *stmtEntry
		for _, e := range w.stmts {
			if coldest == nil || e.lastSeq < coldest.lastSeq {
				coldest = e
			}
		}
		delete(w.stmts, coldest.id)
		w.evictions++
		if w.mEvicted != nil {
			w.mEvicted.Inc()
		}
	}
}

// StatementStats is the exported per-fingerprint aggregate.
type StatementStats struct {
	Fingerprint string
	Query       string
	Arch        string

	Calls int64
	Rows  int64

	Errors        int64
	ErrorsByClass map[string]int64

	Retries      int64
	BreakerTrips int64
	Sheds        int64
	Timeouts     int64
	RPCs         int64
	Instances    int64

	CacheHits      int64
	CacheMisses    int64
	CacheCoalesced int64

	BatchCalls int64
	BatchRows  int64
	BatchFill  float64

	TotalMS float64
	MeanMS  float64
	MaxMS   float64
	P50MS   float64
	P95MS   float64
	P99MS   float64
	WallMS  float64
}

// FunctionStats is the exported per-federated-function aggregate.
type FunctionStats struct {
	Function   string
	Calls      int64
	Statements int64
	TotalMS    float64
	MeanMS     float64
	P50MS      float64
	P95MS      float64
	P99MS      float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (e *stmtEntry) snapshot() StatementStats {
	s := StatementStats{
		Fingerprint:    e.id,
		Query:          e.query,
		Arch:           e.arch,
		Calls:          e.calls,
		Rows:           e.rows,
		Errors:         e.errTotal,
		Retries:        e.retries,
		BreakerTrips:   e.breakerTrips,
		Sheds:          e.sheds,
		Timeouts:       e.timeouts,
		RPCs:           e.rpcs,
		Instances:      e.instances,
		CacheHits:      e.cacheHits,
		CacheMisses:    e.cacheMisses,
		CacheCoalesced: e.cacheCoalesced,
		BatchCalls:     e.batchCalls,
		BatchRows:      e.batchRows,
		TotalMS:        ms(e.paperTotal),
		MaxMS:          e.sketch.Max(),
		P50MS:          e.sketch.Quantile(0.50),
		P95MS:          e.sketch.Quantile(0.95),
		P99MS:          e.sketch.Quantile(0.99),
		WallMS:         ms(e.wallTotal),
		ErrorsByClass:  maps.Clone(e.errors),
	}
	if e.calls > 0 {
		s.MeanMS = s.TotalMS / float64(e.calls)
	}
	if e.batchSlots > 0 {
		s.BatchFill = float64(e.batchRows) / float64(e.batchSlots)
	}
	return s
}

func (e *funcEntry) snapshot() FunctionStats {
	s := FunctionStats{
		Function:   e.name,
		Calls:      e.calls,
		Statements: e.statements,
		TotalMS:    ms(e.paperTotal),
		P50MS:      e.sketch.Quantile(0.50),
		P95MS:      e.sketch.Quantile(0.95),
		P99MS:      e.sketch.Quantile(0.99),
	}
	if e.calls > 0 {
		s.MeanMS = s.TotalMS / float64(e.calls)
	}
	return s
}

// Statements snapshots every live fingerprint, hottest (largest total
// paper time) first; ties break on fingerprint for determinism.
func (w *Warehouse) Statements() []StatementStats {
	w.mu.Lock()
	out := make([]StatementStats, 0, len(w.stmts))
	for _, e := range w.stmts {
		out = append(out, e.snapshot())
	}
	w.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Functions snapshots every federated-function aggregate, hottest first.
func (w *Warehouse) Functions() []FunctionStats {
	w.mu.Lock()
	out := make([]FunctionStats, 0, len(w.funcs))
	for _, e := range w.funcs {
		out = append(out, e.snapshot())
	}
	w.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Function < out[j].Function
	})
	return out
}

// Totals are exact warehouse-wide sums, for cross-checking against
// Recorder and stack counters (E14). Paper adds statement durations as
// integer nanoseconds, so equality with an external reference is exact,
// not approximate.
type Totals struct {
	Statements int64
	Rows       int64
	Errors     int64
	RPCs       int64
	Instances  int64
	Paper      time.Duration
	Evictions  int64
}

// Totals returns the warehouse-wide sums over live fingerprints (plus the
// eviction count since construction).
func (w *Warehouse) Totals() Totals {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := Totals{Evictions: w.evictions}
	for _, e := range w.stmts {
		t.Statements += e.calls
		t.Rows += e.rows
		t.Errors += e.errTotal
		t.RPCs += e.rpcs
		t.Instances += e.instances
		t.Paper += e.paperTotal
	}
	return t
}

// StatementsSchema is the relation schema of fed_stat_statements.
// Errors_By_Class lists the error classes as "class=n" pairs sorted by
// class; Wall_MS is the fingerprint's total real serving time.
func StatementsSchema() types.Schema {
	return types.Schema{
		{Name: "Fingerprint", Type: types.VarCharN(16)},
		{Name: "Arch", Type: types.VarChar},
		{Name: "Calls", Type: types.BigInt},
		{Name: "Rows", Type: types.BigInt},
		{Name: "Errors", Type: types.BigInt},
		{Name: "Errors_By_Class", Type: types.VarChar},
		{Name: "Retries", Type: types.BigInt},
		{Name: "BreakerTrips", Type: types.BigInt},
		{Name: "Sheds", Type: types.BigInt},
		{Name: "Timeouts", Type: types.BigInt},
		{Name: "RPCs", Type: types.BigInt},
		{Name: "Instances", Type: types.BigInt},
		{Name: "CacheHits", Type: types.BigInt},
		{Name: "CacheMisses", Type: types.BigInt},
		{Name: "CacheCoalesced", Type: types.BigInt},
		{Name: "BatchCalls", Type: types.BigInt},
		{Name: "BatchRows", Type: types.BigInt},
		{Name: "BatchFill", Type: types.Double},
		{Name: "Total_MS", Type: types.Double},
		{Name: "Mean_MS", Type: types.Double},
		{Name: "Max_MS", Type: types.Double},
		{Name: "P50_MS", Type: types.Double},
		{Name: "P95_MS", Type: types.Double},
		{Name: "P99_MS", Type: types.Double},
		{Name: "Wall_MS", Type: types.Double},
		{Name: "Query", Type: types.VarChar},
	}
}

// classCounts renders an errors-by-class map as "class=n" pairs sorted by
// class.
func classCounts(m map[string]int64) string {
	parts := make([]string, 0, len(m))
	for class, n := range m {
		parts = append(parts, class+"="+strconv.FormatInt(n, 10))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// StatementsTable materializes the current statement aggregates as a
// relation in StatementsSchema order (hottest first).
func (w *Warehouse) StatementsTable() (*types.Table, error) {
	tab := types.NewTable(StatementsSchema())
	for _, s := range w.Statements() {
		tab.MustAppend(types.Row{
			types.NewString(s.Fingerprint),
			types.NewString(s.Arch),
			types.NewInt(s.Calls),
			types.NewInt(s.Rows),
			types.NewInt(s.Errors),
			types.NewString(classCounts(s.ErrorsByClass)),
			types.NewInt(s.Retries),
			types.NewInt(s.BreakerTrips),
			types.NewInt(s.Sheds),
			types.NewInt(s.Timeouts),
			types.NewInt(s.RPCs),
			types.NewInt(s.Instances),
			types.NewInt(s.CacheHits),
			types.NewInt(s.CacheMisses),
			types.NewInt(s.CacheCoalesced),
			types.NewInt(s.BatchCalls),
			types.NewInt(s.BatchRows),
			types.NewFloat(s.BatchFill),
			types.NewFloat(s.TotalMS),
			types.NewFloat(s.MeanMS),
			types.NewFloat(s.MaxMS),
			types.NewFloat(s.P50MS),
			types.NewFloat(s.P95MS),
			types.NewFloat(s.P99MS),
			types.NewFloat(s.WallMS),
			types.NewString(s.Query),
		})
	}
	return tab, nil
}

// FunctionsSchema is the relation schema of fed_stat_functions.
func FunctionsSchema() types.Schema {
	return types.Schema{
		// "Function" is an SQL keyword (TABLE (fn(...)) syntax), so the
		// column goes by Func to stay selectable.
		{Name: "Func", Type: types.VarChar},
		{Name: "Calls", Type: types.BigInt},
		{Name: "Statements", Type: types.BigInt},
		{Name: "Total_MS", Type: types.Double},
		{Name: "Mean_MS", Type: types.Double},
		{Name: "P50_MS", Type: types.Double},
		{Name: "P95_MS", Type: types.Double},
		{Name: "P99_MS", Type: types.Double},
	}
}

// FunctionsTable materializes the current per-function aggregates as a
// relation in FunctionsSchema order (hottest first).
func (w *Warehouse) FunctionsTable() (*types.Table, error) {
	tab := types.NewTable(FunctionsSchema())
	for _, s := range w.Functions() {
		tab.MustAppend(types.Row{
			types.NewString(s.Function),
			types.NewInt(s.Calls),
			types.NewInt(s.Statements),
			types.NewFloat(s.TotalMS),
			types.NewFloat(s.MeanMS),
			types.NewFloat(s.P50MS),
			types.NewFloat(s.P95MS),
			types.NewFloat(s.P99MS),
		})
	}
	return tab, nil
}

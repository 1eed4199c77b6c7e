package stats

import (
	"errors"
	"sort"
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

// StatementRecord is one finished statement, as observed by the serving
// layer. Paper and Wall are the statement's virtual and wall latencies;
// Counters carries the per-statement execution-shape counts collected
// along the statement's context; Funcs the per-federated-function
// latencies extracted from the statement's span tree.
type StatementRecord struct {
	SQL   string
	Arch  string
	Err   error
	Paper time.Duration
	Wall  time.Duration
	Rows  int

	CacheHits      int
	CacheMisses    int
	CacheCoalesced int

	Counters *StmtCounters
	Funcs    []FuncObservation
}

// FuncObservation is one federated function's contribution to a
// statement: how many invocations and how much paper time.
type FuncObservation struct {
	Name  string
	Calls int64
	Paper time.Duration
}

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
	mRecorded     *obs.Counter
	mEvicted      *obs.Counter
	mFingerprints *obs.Gauge
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
// registry: statements recorded, fingerprints evicted, and live
// fingerprint count.
func (w *Warehouse) AttachMetrics(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mRecorded = reg.Counter("fedwf_stats_statements_recorded_total",
		"Statements folded into the statistics warehouse.")
	w.mEvicted = reg.Counter("fedwf_stats_fingerprints_evicted_total",
		"Cold fingerprints evicted from the statistics warehouse.")
	w.mFingerprints = reg.Gauge("fedwf_stats_fingerprints_live_total",
		"Live statement fingerprints in the statistics warehouse.")
	w.mFingerprints.Set(float64(len(w.stmts)))
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

// FuncObservations extracts per-federated-function latencies from a
// statement's span tree: every span named "udtf.<something>" carrying an
// "fn" attribute is one invocation of that function.
func FuncObservations(root *obs.SpanData) []FuncObservation {
	if root == nil {
		return nil
	}
	acc := make(map[string]*FuncObservation)
	order := make([]string, 0, 4)
	var walk func(s *obs.SpanData)
	walk = func(s *obs.SpanData) {
		if strings.HasPrefix(s.Name, "udtf.") {
			name := ""
			for _, a := range s.Attrs {
				if a.Key == "fn" {
					name = a.Value
					break
				}
			}
			if name != "" {
				o := acc[name]
				if o == nil {
					o = &FuncObservation{Name: name}
					acc[name] = o
					order = append(order, name)
				}
				o.Calls++
				o.Paper += time.Duration(s.ElapsedNS)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	out := make([]FuncObservation, 0, len(order))
	for _, name := range order {
		out = append(out, *acc[name])
	}
	return out
}

// RecordStatement folds one finished statement into the warehouse and
// returns its fingerprint: the warehouse entry's own id string, so callers
// stamping it on further records pin no second copy per statement.
func (w *Warehouse) RecordStatement(rec StatementRecord) string {
	id, normalized := Fingerprint(rec.SQL)
	snap := rec.Counters.Snapshot()

	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	e := w.stmts[id]
	if e == nil {
		e = &stmtEntry{id: id, query: normalized, sketch: NewSketch(), lastSeq: w.seq}
		w.stmts[id] = e
		w.evictColdLocked()
		if w.mFingerprints != nil {
			w.mFingerprints.Set(float64(len(w.stmts)))
		}
	}
	e.lastSeq = w.seq
	if rec.Arch != "" {
		e.arch = rec.Arch
	}
	e.calls++
	e.rows += int64(rec.Rows)
	if class := ClassifyError(rec.Err); class != "" {
		e.errTotal++
		if e.errors == nil {
			e.errors = make(map[string]int64)
		}
		e.errors[class]++
	}
	e.retries += snap.Retries
	e.breakerTrips += snap.BreakerTrips
	e.sheds += snap.Sheds
	e.timeouts += snap.Timeouts
	e.rpcs += snap.RPCs
	e.instances += snap.Instances
	e.cacheHits += int64(rec.CacheHits)
	e.cacheMisses += int64(rec.CacheMisses)
	e.cacheCoalesced += int64(rec.CacheCoalesced)
	e.batchCalls += snap.BatchCalls
	e.batchRows += snap.BatchRows
	e.batchSlots += snap.BatchSlots
	e.paperTotal += rec.Paper
	e.wallTotal += rec.Wall
	e.sketch.Observe(float64(rec.Paper) / float64(time.Millisecond))

	for _, f := range rec.Funcs {
		fe := w.funcs[f.Name]
		if fe == nil {
			fe = &funcEntry{name: f.Name, sketch: NewSketch()}
			w.funcs[f.Name] = fe
		}
		fe.lastSeq = w.seq
		fe.calls += f.Calls
		fe.statements++
		fe.paperTotal += f.Paper
		if f.Calls > 0 {
			fe.sketch.Observe(float64(f.Paper) / float64(f.Calls) / float64(time.Millisecond))
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
	Fingerprint string `json:"fingerprint"`
	Query       string `json:"query"`
	Arch        string `json:"arch,omitempty"`

	Calls int64 `json:"calls"`
	Rows  int64 `json:"rows"`

	Errors        int64            `json:"errors"`
	ErrorsByClass map[string]int64 `json:"errors_by_class,omitempty"`

	Retries      int64 `json:"retries"`
	BreakerTrips int64 `json:"breaker_trips"`
	Sheds        int64 `json:"sheds"`
	Timeouts     int64 `json:"timeouts"`
	RPCs         int64 `json:"rpcs"`
	Instances    int64 `json:"instances"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`

	BatchCalls int64   `json:"batch_calls"`
	BatchRows  int64   `json:"batch_rows"`
	BatchFill  float64 `json:"batch_fill"`

	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	WallMS  float64 `json:"wall_ms"`
}

// FunctionStats is the exported per-federated-function aggregate.
type FunctionStats struct {
	Function   string  `json:"function"`
	Calls      int64   `json:"calls"`
	Statements int64   `json:"statements"`
	TotalMS    float64 `json:"total_ms"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
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
	}
	if e.calls > 0 {
		s.MeanMS = s.TotalMS / float64(e.calls)
	}
	if e.batchSlots > 0 {
		s.BatchFill = float64(e.batchRows) / float64(e.batchSlots)
	}
	if len(e.errors) > 0 {
		s.ErrorsByClass = make(map[string]int64, len(e.errors))
		for k, v := range e.errors {
			s.ErrorsByClass[k] = v
		}
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
func StatementsSchema() types.Schema {
	return types.Schema{
		{Name: "Fingerprint", Type: types.VarCharN(16)},
		{Name: "Calls", Type: types.BigInt},
		{Name: "Rows", Type: types.BigInt},
		{Name: "Errors", Type: types.BigInt},
		{Name: "Retries", Type: types.BigInt},
		{Name: "BreakerTrips", Type: types.BigInt},
		{Name: "Timeouts", Type: types.BigInt},
		{Name: "RPCs", Type: types.BigInt},
		{Name: "Instances", Type: types.BigInt},
		{Name: "CacheHits", Type: types.BigInt},
		{Name: "CacheMisses", Type: types.BigInt},
		{Name: "BatchFill", Type: types.Double},
		{Name: "Total_MS", Type: types.Double},
		{Name: "Mean_MS", Type: types.Double},
		{Name: "P50_MS", Type: types.Double},
		{Name: "P95_MS", Type: types.Double},
		{Name: "P99_MS", Type: types.Double},
		{Name: "Query", Type: types.VarChar},
	}
}

// StatementsTable materializes the current statement aggregates as a
// relation in StatementsSchema order (hottest first).
func (w *Warehouse) StatementsTable() (*types.Table, error) {
	tab := types.NewTable(StatementsSchema())
	for _, s := range w.Statements() {
		tab.MustAppend(types.Row{
			types.NewString(s.Fingerprint),
			types.NewInt(s.Calls),
			types.NewInt(s.Rows),
			types.NewInt(s.Errors),
			types.NewInt(s.Retries),
			types.NewInt(s.BreakerTrips),
			types.NewInt(s.Timeouts),
			types.NewInt(s.RPCs),
			types.NewInt(s.Instances),
			types.NewInt(s.CacheHits),
			types.NewInt(s.CacheMisses),
			types.NewFloat(s.BatchFill),
			types.NewFloat(s.TotalMS),
			types.NewFloat(s.MeanMS),
			types.NewFloat(s.P50MS),
			types.NewFloat(s.P95MS),
			types.NewFloat(s.P99MS),
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

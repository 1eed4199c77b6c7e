package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"

	"fedwf/internal/appsys"
	"fedwf/internal/fdbs"
	"fedwf/internal/fedfunc"
	"fedwf/internal/types"
)

// sessions is the fixed client count of the closed loop: FDBS clients are
// application programs that issue a statement and wait for its table, and
// two of them fit the 2-vCPU reference VM without queueing for a core.
const sessions = 2

// workload is one traffic mix. The server only ever sees the SQL that next
// generates; everything else here is the harness's own knowledge of what
// the answer must be.
type workload struct {
	name string
	// why records what the workload is for; it is copied into
	// BENCHMARK.json and the README.
	why string
	// pipeline is the number of statements each session keeps in flight.
	pipeline int
	// tune edits the shipped default server configuration; nil keeps it.
	tune func(*fdbs.ServerConfig)
	// table names the workload's own table ("" when it has none) and key
	// its first column, for the storage probes of the ladder.
	table string
	// load creates and fills the workload's tables on a fresh server.
	load func(ctx context.Context, srv *fdbs.Server, c *fdbs.Client) error
	// newGen returns worker i's statement generator: a pure function of
	// rng and the worker number.
	newGen func(rng *rand.Rand, worker int) func() stmt
	// fedCall names the federated call a statement makes, for the ladder's
	// rungs beneath the engine; nil for the workloads that make none.
	fedCall func(st stmt) *fedCall
	// mutates marks a workload whose statements change what later answers
	// must be; the ladder, which replays each statement at every rung,
	// cannot hold those to the oracle.
	mutates bool
	// newChecker returns the result oracle of one round.
	newChecker func() checker
}

// stmt is one generated statement with what its oracle needs to know.
type stmt struct {
	sql string
	op  opKind // mixed_rw: what the statement does
	arg int    // fed_*: index into fedStmts; others: the drawn threshold or key
}

type opKind int

const (
	opSelect opKind = iota
	opUpdate
	opInsert
	opDelete
)

// checker is the result oracle of one round: check judges one response,
// finish the end-of-round invariants (nil when there are none).
type checker struct {
	check  func(st stmt, tab *types.Table) error
	finish func(ctx context.Context, c *fdbs.Client) error
}

// workloads returns the six workloads in their fixed order. golden pins
// the fed_* digests; a nil map checks nothing (used while regenerating).
func workloads(golden map[string]string) []*workload {
	fed := func(name, arch, why string) *workload {
		return &workload{
			name: name, why: why, pipeline: 1,
			tune: func(c *fdbs.ServerConfig) { c.Arch = arch },
			newGen: stateless(func(rng *rand.Rand) stmt {
				i := rng.Intn(len(fedStmts))
				return stmt{sql: fedStmts[i].sql, arg: i}
			}),
			fedCall: func(st stmt) *fedCall {
				f := fedStmts[st.arg]
				return &fedCall{spec: f.spec, rows: [][]types.Value{f.args}, chunk: 1}
			},
			newChecker: func() checker {
				return checker{check: func(st stmt, tab *types.Table) error {
					if golden == nil {
						return nil
					}
					want, ok := golden[st.sql]
					if !ok {
						return fmt.Errorf("no golden digest for %q (run -update-golden)", st.sql)
					}
					if got := digest(tab); got != want {
						return fmt.Errorf("%q: digest %s, golden %s", st.sql, got, want)
					}
					return nil
				}}
			},
		}
	}
	return []*workload{
		fed("fed_wfms", "wfms", "the paper's Fig. 5 mix through the WfMS architecture: a ~0.15 ms statement where udtf, controller, wfms, appsys and the fixed per-statement cost of rpc and fdbs telemetry do nearly all the work"),
		fed("fed_udtf", "udtf", "the identical mix and seed through SQL I-UDTF bodies: bypasses wfms entirely, the paper's central comparison and the bypass twin for any wfms or controller change"),
		lateralBatch(),
		localJoin(),
		wideResult(),
		mixedRW(),
	}
}

// stateless lifts a draw that needs no memory into a generator factory.
func stateless(draw func(rng *rand.Rand) stmt) func(*rand.Rand, int) func() stmt {
	return func(rng *rand.Rand, _ int) func() stmt {
		return func() stmt { return draw(rng) }
	}
}

// fedStmt is one statement of the Fig. 5 mix: a federated function applied
// to one of its sample argument rows.
type fedStmt struct {
	sql  string
	spec *fedfunc.Spec
	args []types.Value
}

// fedStmts is every UDTF-expressible federated function times every
// sample argument row, in catalog order.
var fedStmts = func() []fedStmt {
	var out []fedStmt
	for _, spec := range fedfunc.Specs() {
		if !spec.SupportsUDTF() {
			continue
		}
		for _, args := range spec.SampleArgs {
			lits := make([]string, len(args))
			for i, v := range args {
				lits[i] = v.String()
			}
			out = append(out, fedStmt{
				sql:  fmt.Sprintf("SELECT * FROM TABLE (%s(%s)) AS R", spec.Name, strings.Join(lits, ", ")),
				spec: spec, args: args,
			})
		}
	}
	return out
}()

// digest is the canonical form the fed_* oracle pins: column names and
// types, then every value in row order.
func digest(tab *types.Table) string {
	h := sha256.New()
	for _, c := range tab.Schema {
		io.WriteString(h, c.String())
		io.WriteString(h, ";")
	}
	for _, r := range tab.Rows {
		io.WriteString(h, "\n")
		for _, v := range r {
			io.WriteString(h, v.String())
			io.WriteString(h, ",")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Lateral driver table: 64 rows cycling over the scenario's ten suppliers.
const (
	drvRows      = 64
	lateralChunk = 8
)

func drvSupplier(i int) int { return i%appsys.NumSuppliers + 1 }

// drvRowsFrom is how many driver rows have SupplierNo >= x.
func drvRowsFrom(x int) int {
	n := 0
	for i := 0; i < drvRows; i++ {
		if drvSupplier(i) >= x {
			n++
		}
	}
	return n
}

func lateralBatch() *workload {
	var spec *fedfunc.Spec
	for _, f := range fedStmts {
		if f.spec.Name == "GetSuppQualRelia" {
			spec = f.spec
		}
	}
	return &workload{
		name:     "lateral_batch",
		why:      "64 outer rows through the federated layers in chunks of 8 (CallBatch, RunBatchContext, InvokeFuncBatch) at dop 2: the batch-path twin of fed_wfms, and where retained span trees set live_heap_mb",
		pipeline: 1,
		tune:     func(c *fdbs.ServerConfig) { c.BatchSize = lateralChunk; c.DOP = 2 },
		table:    "drv",
		load: func(ctx context.Context, srv *fdbs.Server, c *fdbs.Client) error {
			rows := make([]types.Row, drvRows)
			for i := range rows {
				rows[i] = types.Row{types.NewInt(int64(drvSupplier(i)))}
			}
			if err := createAndFill(ctx, srv, c, "CREATE TABLE drv (SupplierNo INT)", "drv", rows); err != nil {
				return err
			}
			res, err := c.Exec(ctx, "EXPLAIN "+lateralSQL(0))
			if err != nil {
				return err
			}
			const wantPlan = "ParallelApply (dop=2) (batch=count=8)"
			if plan := tableText(res.Table); !strings.Contains(plan, wantPlan) {
				return fmt.Errorf("lateral_batch plan lacks %q:\n%s", wantPlan, plan)
			}
			return nil
		},
		newGen: stateless(func(rng *rand.Rand) stmt {
			x := rng.Intn(4)
			return stmt{sql: lateralSQL(x), arg: x}
		}),
		fedCall: func(st stmt) *fedCall {
			fc := &fedCall{spec: spec, chunk: lateralChunk}
			for i := 0; i < drvRows; i++ {
				if no := drvSupplier(i); no >= st.arg {
					fc.rows = append(fc.rows, []types.Value{types.NewInt(int64(no))})
				}
			}
			return fc
		},
		newChecker: func() checker {
			return checker{check: func(st stmt, tab *types.Table) error {
				if want := drvRowsFrom(st.arg); tab.Len() != want {
					return fmt.Errorf("lateral_batch x=%d: %d rows, want %d", st.arg, tab.Len(), want)
				}
				for _, r := range tab.Rows {
					no := int(r[0].Int())
					if no < st.arg || int(r[1].Int()) != appsys.SupplierQuality(no) || int(r[2].Int()) != appsys.SupplierReliability(no) {
						return fmt.Errorf("lateral_batch x=%d: wrong row %s", st.arg, r)
					}
				}
				return nil
			}}
		},
	}
}

func lateralSQL(x int) string {
	return fmt.Sprintf("SELECT d.SupplierNo, F.Qual, F.Relia FROM drv d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F WHERE d.SupplierNo >= %d", x)
}

// Join tables, as in the root package's BenchmarkExecutorJoin.
const (
	joinLRows  = 2000
	joinRRows  = 500
	joinGroups = 100
)

func localJoin() *workload {
	return &workload{
		name:     "local_join",
		why:      "a hash join with aggregation, ~44k allocations per statement, all in plan, exec and storage: the bypass twin for any rpc, telemetry or federated-path change",
		pipeline: 1,
		table:    "l",
		load: func(ctx context.Context, srv *fdbs.Server, c *fdbs.Client) error {
			l := make([]types.Row, joinLRows)
			for i := range l {
				l[i] = types.Row{types.NewInt(int64(i % joinGroups)), types.NewInt(int64(i))}
			}
			r := make([]types.Row, joinRRows)
			for i := range r {
				r[i] = types.Row{types.NewInt(int64(i % joinGroups)), types.NewInt(int64(i))}
			}
			if err := createAndFill(ctx, srv, c, "CREATE TABLE l (K INT, V INT)", "l", l); err != nil {
				return err
			}
			return createAndFill(ctx, srv, c, "CREATE TABLE r (K INT, W INT)", "r", r)
		},
		newGen: stateless(func(rng *rand.Rand) stmt {
			x := rng.Intn(200)
			return stmt{arg: x, sql: fmt.Sprintf(
				"SELECT l.K, COUNT(*), SUM(r.W) FROM l, r WHERE l.K = r.K AND l.V >= %d GROUP BY l.K", x)}
		}),
		newChecker: func() checker {
			return checker{check: func(st stmt, tab *types.Table) error {
				if tab.Len() != joinGroups {
					return fmt.Errorf("local_join x=%d: %d groups, want %d", st.arg, tab.Len(), joinGroups)
				}
				seen := make([]bool, joinGroups)
				for _, row := range tab.Rows {
					k := int(row[0].Int())
					if k < 0 || k >= joinGroups || seen[k] {
						return fmt.Errorf("local_join x=%d: unexpected group %d", st.arg, k)
					}
					seen[k] = true
					count, sum := joinExpect(k, st.arg)
					gotSum, err := row[2].AsInt()
					if err != nil || row[1].Int() != count || gotSum != sum {
						return fmt.Errorf("local_join x=%d group %d: got %s, want count %d sum %d", st.arg, k, row, count, sum)
					}
				}
				return nil
			}}
		},
	}
}

// joinExpect computes group k's COUNT(*) and SUM(r.W) for threshold x from
// the table generators alone.
func joinExpect(k, x int) (count, sum int64) {
	var lRows, rRows, rSum int64
	for i := k; i < joinLRows; i += joinGroups {
		if i >= x {
			lRows++
		}
	}
	for i := k; i < joinRRows; i += joinGroups {
		rRows++
		rSum += int64(i)
	}
	return lRows * rRows, lRows * rSum
}

const wideRows = 2000

// wideS is row i's 16-byte string column.
var wideS = func() []string {
	s := make([]string, wideRows)
	for i := range s {
		s[i] = fmt.Sprintf("row-%012d", i)
	}
	return s
}()

func wideV(i int) int64 { return int64(i*7919) % 1000 }

func wideResult() *workload {
	return &workload{
		name:     "wide_result",
		why:      "a trivial plan returning ~2000 rows, ~2 MB allocated per statement from table to wire to frame and back: the only workload where the rpc codec, not the engine, sets latency (the largest messages)",
		pipeline: 1,
		table:    "wide",
		load: func(ctx context.Context, srv *fdbs.Server, c *fdbs.Client) error {
			rows := make([]types.Row, wideRows)
			for i := range rows {
				rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(wideV(i)), types.NewString(wideS[i])}
			}
			return createAndFill(ctx, srv, c, "CREATE TABLE wide (K INT, V INT, S VARCHAR(16))", "wide", rows)
		},
		newGen: stateless(func(rng *rand.Rand) stmt {
			x := rng.Intn(50)
			return stmt{arg: x, sql: fmt.Sprintf("SELECT K, V, S FROM wide WHERE K >= %d", x)}
		}),
		newChecker: func() checker {
			return checker{check: func(st stmt, tab *types.Table) error {
				if tab.Len() != wideRows-st.arg {
					return fmt.Errorf("wide_result x=%d: %d rows, want %d", st.arg, tab.Len(), wideRows-st.arg)
				}
				for j, r := range tab.Rows {
					i := st.arg + j
					if r[0].Int() != int64(i) || r[1].Int() != wideV(i) || r[2].Str() != wideS[i] {
						return fmt.Errorf("wide_result x=%d: row %d is %s", st.arg, j, r)
					}
				}
				return nil
			}}
		},
	}
}

// mixed_rw table: kvBase rows that are read and updated, plus a churn range
// above them that INSERT and DELETE work on. The op kinds come from a
// shuffled deck of 100 with the exact proportions, and every worker owns
// the churn keys congruent to its number: it inserts the next key it does
// not hold and deletes the oldest it holds, so every INSERT adds and every
// DELETE removes exactly one row. That keeps the table size stationary and
// the per-statement cost free of sampling noise (a DELETE that hits
// rebuilds the index; one that misses does nothing). Each worker starts
// with kvHeld keys, which the deck's at most 5 deletes in a row cannot
// exhaust.
const (
	kvBase       = 10000
	kvChurn      = 1000
	kvHeld       = 8
	mixedFlight  = 4 // statements in flight per session
	mixedWorkers = sessions * mixedFlight
)

// mixedDeck is one cycle of the mix: 70 SELECT, 20 UPDATE, 5 INSERT, 5 DELETE.
var mixedDeck = func() []opKind {
	var deck []opKind
	for _, part := range []struct {
		op opKind
		n  int
	}{{opSelect, 70}, {opUpdate, 20}, {opInsert, 5}, {opDelete, 5}} {
		for i := 0; i < part.n; i++ {
			deck = append(deck, part.op)
		}
	}
	return deck
}()

// churnKey is the j-th churn key the worker owns.
func churnKey(worker, j int) int { return kvBase + worker + mixedWorkers*(j%(kvChurn/mixedWorkers)) }

func mixedRW() *workload {
	return &workload{
		name:     "mixed_rw",
		why:      "70% point SELECT, 20% UPDATE, 5% INSERT, 5% DELETE on one indexed table with 8 statements in flight: the only workload with writes beside reads, out-of-order mux responses and lock contention",
		pipeline: mixedFlight,
		table:    "kv",
		mutates:  true,
		load: func(ctx context.Context, srv *fdbs.Server, c *fdbs.Client) error {
			rows := make([]types.Row, 0, kvBase+mixedWorkers*kvHeld)
			for i := 0; i < kvBase; i++ {
				rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(0)})
			}
			for w := 0; w < mixedWorkers; w++ {
				for j := 0; j < kvHeld; j++ {
					rows = append(rows, types.Row{types.NewInt(int64(churnKey(w, j))), types.NewInt(0)})
				}
			}
			return createAndFill(ctx, srv, c, "CREATE TABLE kv (K INT PRIMARY KEY, V INT)", "kv", rows)
		},
		newGen: mixedGen,
		newChecker: func() checker {
			var updated, inserted, deleted atomic.Int64
			return checker{
				check: func(st stmt, tab *types.Table) error {
					if st.op == opSelect {
						// V only ever counts this key's acknowledged updates.
						if tab.Len() != 1 || tab.Rows[0][0].Int() < 0 {
							return fmt.Errorf("mixed_rw select k=%d: %d rows", st.arg, tab.Len())
						}
						return nil
					}
					n, err := rowsAffected(tab)
					if err != nil {
						return err
					}
					if n != 1 {
						return fmt.Errorf("mixed_rw: %q affected %d rows, want 1", st.sql, n)
					}
					switch st.op {
					case opUpdate:
						updated.Add(1)
					case opInsert:
						inserted.Add(1)
					case opDelete:
						deleted.Add(1)
					}
					return nil
				},
				finish: func(ctx context.Context, c *fdbs.Client) error {
					sum, err := scalar(ctx, c, fmt.Sprintf("SELECT SUM(V) FROM kv WHERE K < %d", kvBase))
					if err != nil {
						return err
					}
					if sum != updated.Load() {
						return fmt.Errorf("mixed_rw: SUM(V) = %d after %d acknowledged updates", sum, updated.Load())
					}
					churn, err := scalar(ctx, c, fmt.Sprintf("SELECT COUNT(*) FROM kv WHERE K >= %d", kvBase))
					if err != nil {
						return err
					}
					if want := mixedWorkers*kvHeld + inserted.Load() - deleted.Load(); churn != want {
						return fmt.Errorf("mixed_rw: %d churn rows, want %d + %d inserted - %d deleted",
							churn, mixedWorkers*kvHeld, inserted.Load(), deleted.Load())
					}
					return nil
				},
			}
		},
	}
}

func mixedGen(rng *rand.Rand, worker int) func() stmt {
	deck := append([]opKind(nil), mixedDeck...)
	pos := len(deck)
	oldest, next := 0, kvHeld // the worker holds churn keys oldest..next-1
	return func() stmt {
		if pos == len(deck) {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			pos = 0
		}
		op := deck[pos]
		pos++
		switch op {
		case opUpdate:
			k := rng.Intn(kvBase)
			return stmt{op: op, arg: k, sql: fmt.Sprintf("UPDATE kv SET V = V + 1 WHERE K = %d", k)}
		case opInsert:
			k := churnKey(worker, next)
			next++
			return stmt{op: op, arg: k, sql: fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", k)}
		case opDelete:
			k := churnKey(worker, oldest)
			oldest++
			return stmt{op: op, arg: k, sql: fmt.Sprintf("DELETE FROM kv WHERE K = %d", k)}
		default:
			k := rng.Intn(kvBase)
			return stmt{op: op, arg: k, sql: fmt.Sprintf("SELECT V FROM kv WHERE K = %d", k)}
		}
	}
}

// createAndFill issues the CREATE TABLE through the client, like any
// application would, and bulk-loads the rows through the storage layer.
func createAndFill(ctx context.Context, srv *fdbs.Server, c *fdbs.Client, create, table string, rows []types.Row) error {
	if _, err := c.Exec(ctx, create); err != nil {
		return err
	}
	tab, err := srv.Engine().Catalog().Table(table)
	if err != nil {
		return err
	}
	return tab.InsertAll(rows)
}

// rowsAffected reads the count out of a non-query's one-row message table
// ("3 rows updated").
func rowsAffected(tab *types.Table) (int64, error) {
	var n int64
	if tab.Len() != 1 {
		return 0, fmt.Errorf("message table has %d rows", tab.Len())
	}
	msg := tab.Rows[0][0].Str()
	if _, err := fmt.Sscanf(msg, "%d rows", &n); err != nil {
		return 0, fmt.Errorf("message %q: %w", msg, err)
	}
	return n, nil
}

// scalar runs a one-row, one-column query and returns its value as an
// integer (NULL, as SUM over no rows gives, reads as 0).
func scalar(ctx context.Context, c *fdbs.Client, sql string) (int64, error) {
	res, err := c.Exec(ctx, sql)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sql, err)
	}
	if res.Table.Len() != 1 || len(res.Table.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: not a scalar result", sql)
	}
	v := res.Table.Rows[0][0]
	if v.IsNull() {
		return 0, nil
	}
	return v.AsInt()
}

// tableText joins a result's first column, one row per line (EXPLAIN
// returns its plan that way).
func tableText(tab *types.Table) string {
	var b strings.Builder
	for _, r := range tab.Rows {
		b.WriteString(r[0].Format())
		b.WriteByte('\n')
	}
	return b.String()
}

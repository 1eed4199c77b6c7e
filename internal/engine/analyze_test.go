package engine

import (
	"context"
	"strings"
	"testing"

	"fedwf/internal/catalog"
	"fedwf/internal/obs/stats"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// analyzeFixture wires an engine with a costed external UDTF and a 16-row
// driver table over 8 distinct keys (the E8-style lateral batch shape).
func analyzeFixture(t *testing.T) (*Engine, *Session) {
	t.Helper()
	eng := New()
	s := eng.NewSession()
	if err := eng.RegisterExternal("test.slow", func(rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		task.Spend(10 * simlat.PaperMS)
		out := types.NewTable(types.Schema{{Name: "Y", Type: types.Integer}})
		out.MustAppend(types.Row{types.NewInt(args[0].Int() * 10)})
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.MustExecContext(context.Background(), "CREATE FUNCTION Slow (X INT) RETURNS TABLE (Y INT) LANGUAGE EXTERNAL NAME 'test.slow'")
	s.MustExecContext(context.Background(), "CREATE TABLE driver (X INT)")
	for i := 0; i < 16; i++ {
		s.MustExecContext(context.Background(), "INSERT INTO driver VALUES ("+string(rune('0'+i%8))+")")
	}
	return eng, s
}

const analyzeQuery = "SELECT d.X, f.Y FROM driver d, TABLE (Slow(d.X)) AS f"

func TestExplainAnalyzeSequential(t *testing.T) {
	_, s := analyzeFixture(t)
	out := s.MustExecContext(context.Background(), "EXPLAIN ANALYZE "+analyzeQuery).Table.String()
	for _, want := range []string{
		"actual rows=16",    // every node saw all 16 rows
		"loops=16",          // lateral right side opened per outer row
		"time=160.0ms",      // 16 invocations at 10 paper ms
		"rows returned: 16", // footer
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "workers[") {
		t.Errorf("sequential plan shows workers:\n%s", out)
	}
}

func TestExplainAnalyzeParallelDeterministic(t *testing.T) {
	_, s := analyzeFixture(t)
	s.MustExecContext(context.Background(), "SET PARALLELISM 4")
	a := s.MustExecContext(context.Background(), "EXPLAIN ANALYZE "+analyzeQuery).Table.String()
	b := s.MustExecContext(context.Background(), "EXPLAIN ANALYZE "+analyzeQuery).Table.String()
	if a != b {
		t.Errorf("EXPLAIN ANALYZE under parallelism not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"ParallelApply (dop=4)",
		// Round-robin over 16 rows at 10ms: 4 rows = 40ms per worker.
		"workers[w0=40.0ms w1=40.0ms w2=40.0ms w3=40.0ms]",
		"rows returned: 16",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("parallel EXPLAIN ANALYZE missing %q:\n%s", want, a)
		}
	}
}

func TestExplainAnalyzeCacheCounters(t *testing.T) {
	eng, s := analyzeFixture(t)
	eng.SetFunctionCache(true)
	out := s.MustExecContext(context.Background(), "EXPLAIN ANALYZE "+analyzeQuery).Table.String()
	// 16 lookups over 8 distinct keys, sequential: 8 misses then 8 hits.
	for _, want := range []string{
		"cache(hits=8 misses=8 coalesced=0)",
		"func cache: hits=8 misses=8 coalesced=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	if st := s.LastCacheStats(); st.Hits != 8 || st.Misses != 8 {
		t.Errorf("session cache stats after EXPLAIN ANALYZE = %+v", st)
	}
}

func TestExplainWithoutAnalyzeUnchanged(t *testing.T) {
	_, s := analyzeFixture(t)
	out := s.MustExecContext(context.Background(), "EXPLAIN "+analyzeQuery).Table.String()
	if strings.Contains(out, "actual rows=") {
		t.Errorf("plain EXPLAIN carries actuals:\n%s", out)
	}
}

func TestExplainShowsMeasuredActualsAfterAnalyze(t *testing.T) {
	eng, s := analyzeFixture(t)
	eng.SetPlanStats(stats.NewPlanStore(0))

	before := s.MustExecContext(context.Background(), "EXPLAIN "+analyzeQuery).Table.String()
	if strings.Contains(before, "last run:") || strings.Contains(before, "measured:") {
		t.Errorf("plain EXPLAIN annotated before any ANALYZE run:\n%s", before)
	}

	s.MustExecContext(context.Background(), "EXPLAIN ANALYZE "+analyzeQuery)
	after := s.MustExecContext(context.Background(), "EXPLAIN "+analyzeQuery).Table.String()
	for _, want := range []string{
		"(last run: rows=16 loops=1 time=160.0",
		"(last run: rows=16 loops=16 time=160.0", // the lateral right side
		"measured: last of 1 analyzed run(s) of this plan shape",
	} {
		if !strings.Contains(after, want) {
			t.Errorf("measured EXPLAIN missing %q:\n%s", want, after)
		}
	}

	// A different plan shape stays unannotated.
	other := s.MustExecContext(context.Background(), "EXPLAIN SELECT d.X FROM driver d").Table.String()
	if strings.Contains(other, "last run:") {
		t.Errorf("unrelated plan shape annotated:\n%s", other)
	}

	// A second ANALYZE run bumps the run counter.
	s.MustExecContext(context.Background(), "EXPLAIN ANALYZE "+analyzeQuery)
	again := s.MustExecContext(context.Background(), "EXPLAIN "+analyzeQuery).Table.String()
	if !strings.Contains(again, "last of 2 analyzed run(s)") {
		t.Errorf("run counter not updated:\n%s", again)
	}
}

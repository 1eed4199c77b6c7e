package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fedwf/internal/plan"
	"fedwf/internal/simlat"
)

// TestConcurrentSessions hammers one engine with parallel readers and
// writers across sessions; run with -race to validate the locking story.
func TestConcurrentSessions(t *testing.T) {
	eng := New()
	setup := eng.NewSession()
	setup.MustExecContext(context.Background(), "CREATE TABLE counters (Worker INT, N INT)")

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := eng.NewSession()
			for i := 0; i < 30; i++ {
				if _, err := s.ExecContext(context.Background(), fmt.Sprintf("INSERT INTO counters VALUES (%d, %d)", w, i)); err != nil {
					errs <- err
					return
				}
				if _, err := s.QueryContext(context.Background(), "SELECT COUNT(*) FROM counters"); err != nil {
					errs <- err
					return
				}
				if i%10 == 0 {
					if _, err := s.QueryContext(context.Background(), fmt.Sprintf("SELECT N FROM counters WHERE Worker = %d ORDER BY N", w)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tab, err := setup.QueryContext(context.Background(), "SELECT COUNT(*) FROM counters")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0].Int() != 240 {
		t.Errorf("rows = %v, want 240", tab.Rows[0][0])
	}
}

func TestEnginePlanOptions(t *testing.T) {
	eng := New()
	s := eng.NewSession()
	s.MustExecContext(context.Background(), "CREATE TABLE a (K INT)")
	s.MustExecContext(context.Background(), "CREATE TABLE b (K INT)")
	query := "EXPLAIN SELECT * FROM a, b WHERE a.K = b.K"
	res := s.MustExecContext(context.Background(), query)
	if !strings.Contains(res.Table.String(), "HashJoin") {
		t.Fatalf("default plan:\n%s", res.Table)
	}
	// Planner options are what new sessions start from.
	eng.SetPlanOptions(plan.Options{DisableHashJoin: true})
	if res = s.MustExecContext(context.Background(), query); !strings.Contains(res.Table.String(), "HashJoin") {
		t.Errorf("open session's plan changed:\n%s", res.Table)
	}
	res = eng.NewSession().MustExecContext(context.Background(), query)
	if strings.Contains(res.Table.String(), "HashJoin") {
		t.Errorf("ablated plan still hash-joins:\n%s", res.Table)
	}
}

func TestEngineCompositionCost(t *testing.T) {
	eng := New(WithCompositionCost(6 * simlat.PaperMS))
	s := eng.NewSession()
	s.MustExecContext(context.Background(), "CREATE TABLE a (K INT)")
	s.MustExecContext(context.Background(), "CREATE TABLE b (K INT)")
	s.MustExecContext(context.Background(), "INSERT INTO a VALUES (1)")
	s.MustExecContext(context.Background(), "INSERT INTO b VALUES (1)")
	task := simlat.NewVirtualTask()
	s.SetTask(task)
	if _, err := s.QueryContext(context.Background(), "SELECT * FROM a, b WHERE a.K = b.K"); err != nil {
		t.Fatal(err)
	}
	if task.Elapsed() != 6*simlat.PaperMS {
		t.Errorf("composition cost charged %v, want 6ms", task.Elapsed())
	}
}

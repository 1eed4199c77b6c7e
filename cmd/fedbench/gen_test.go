package main

import (
	"math/rand"
	"testing"
)

func sequence(w *workload, source int64, n int) []string {
	next := w.newGen(rand.New(rand.NewSource(source)), 0)
	out := make([]string, n)
	for i := range out {
		out[i] = next().sql
	}
	return out
}

func TestGeneratorsAreDeterministicPerWorker(t *testing.T) {
	for _, w := range workloads(nil) {
		a, b := sequence(w, 1000, 200), sequence(w, 1000, 200)
		differs := false
		other := sequence(w, 2000, 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: statement %d differs between two draws from the same seed", w.name, i)
			}
			if a[i] != other[i] {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 give the same 200 statements", w.name)
		}
		neighbour := sequence(w, 1001, 200)
		same := true
		for i := range a {
			if a[i] != neighbour[i] {
				same = false
			}
		}
		if same {
			t.Errorf("%s: workers 0 and 1 of one seed draw the same statements", w.name)
		}
	}
}

func TestFedStatementsCoverTheCatalogue(t *testing.T) {
	if len(fedStmts) == 0 {
		t.Fatal("no fed_* statements")
	}
	for _, f := range fedStmts {
		if !f.spec.SupportsUDTF() {
			t.Errorf("%s has no UDTF realisation and cannot be in both fed_* workloads", f.spec.Name)
		}
	}
}

// Every cycle of 100 statements has the mix's exact proportions, every
// worker stays inside its own churn keys, inserts only keys it does not
// hold and deletes only keys it holds: the table size is stationary and no
// INSERT or DELETE can ever affect another row count than 1.
func TestMixedRWProportionsAndStationarity(t *testing.T) {
	held := make(map[int]int) // churn key -> worker holding it
	gens := make([]func() stmt, mixedWorkers)
	for w := range gens {
		gens[w] = mixedGen(rand.New(rand.NewSource(int64(42+w))), w)
		for j := 0; j < kvHeld; j++ {
			held[churnKey(w, j)] = w
		}
	}
	if len(held) != mixedWorkers*kvHeld {
		t.Fatalf("the workers' initial churn keys overlap: %d distinct, want %d", len(held), mixedWorkers*kvHeld)
	}
	for cycle := 0; cycle < 200; cycle++ {
		for w, next := range gens {
			var ops [4]int
			for i := 0; i < len(mixedDeck); i++ {
				st := next()
				ops[st.op]++
				switch st.op {
				case opSelect, opUpdate:
					if st.arg < 0 || st.arg >= kvBase {
						t.Fatalf("%s touches key %d outside the base range", st.sql, st.arg)
					}
				case opInsert:
					if owner, ok := held[st.arg]; ok {
						t.Fatalf("worker %d inserts key %d, which worker %d holds", w, st.arg, owner)
					}
					if st.arg < kvBase || st.arg >= kvBase+kvChurn || (st.arg-kvBase)%mixedWorkers != w {
						t.Fatalf("worker %d inserts key %d, which is not its own", w, st.arg)
					}
					held[st.arg] = w
				case opDelete:
					if owner, ok := held[st.arg]; !ok || owner != w {
						t.Fatalf("worker %d deletes key %d, which it does not hold", w, st.arg)
					}
					delete(held, st.arg)
				}
			}
			if ops != [4]int{70, 20, 5, 5} {
				t.Fatalf("worker %d cycle %d has ops %v, want 70/20/5/5", w, cycle, ops)
			}
		}
		if len(held) != mixedWorkers*kvHeld {
			t.Fatalf("after cycle %d the churn range holds %d rows, want %d", cycle, len(held), mixedWorkers*kvHeld)
		}
	}
}

func TestOraclesComputeFromTheGenerators(t *testing.T) {
	// Group 7, threshold 150: l rows 207, 307, ... 1907 (18 of them; 7 and
	// 107 fall below 150) times r rows 7, 107, 207, 307, 407.
	count, sum := joinExpect(7, 150)
	if count != 18*5 || sum != 18*(7+107+207+307+407) {
		t.Errorf("joinExpect(7, 150) = %d, %d", count, sum)
	}
	if got := drvRowsFrom(0); got != drvRows {
		t.Errorf("drvRowsFrom(0) = %d, want %d", got, drvRows)
	}
	// Suppliers cycle 1..10 over 64 rows: supplier 1 appears 7 times, 2 too.
	if got := drvRowsFrom(3); got != drvRows-14 {
		t.Errorf("drvRowsFrom(3) = %d, want %d", got, drvRows-14)
	}
}

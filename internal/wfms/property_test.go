package wfms

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// TestNavigatorCriticalPathProperty: for random acyclic processes with
// random activity durations, the navigator's virtual elapsed time equals
// the critical path computed independently by dynamic programming, every
// activity runs exactly once, and the run terminates.
func TestNavigatorCriticalPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)

		// Random DAG: edges only from lower to higher index.
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			for j := i + 1; j < n; j++ {
				adj[i][j] = r.Intn(3) == 0
			}
		}

		// Build the process.
		invoked := make([]int, n)
		p := &Process{
			Name:   "random",
			Input:  []types.Column{},
			Output: types.Schema{{Name: "X", Type: types.Integer}},
		}
		for i := 0; i < n; i++ {
			i := i
			p.Nodes = append(p.Nodes, &HelperActivity{
				Name: fmt.Sprintf("A%d", i),
				Fn: func(in map[string]*types.Table) (*types.Table, error) {
					invoked[i]++
					out := types.NewTable(types.Schema{{Name: "X", Type: types.Integer}})
					out.MustAppend(types.Row{types.NewInt(int64(i))})
					return out, nil
				},
			})
			for j := 0; j < i; j++ {
				if adj[j][i] {
					p.Flow = append(p.Flow, ControlConnector{From: fmt.Sprintf("A%d", j), To: fmt.Sprintf("A%d", i)})
				}
			}
		}
		p.Result = fmt.Sprintf("A%d", n-1)

		// Every activity costs a uniform 10 paper-ms, so the expected
		// elapsed time is the DAG's critical path in activity slots.
		eng := New(InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
			return nil, fmt.Errorf("unused")
		}), Costs{ActivityBoot: 10 * simlat.PaperMS})

		task := simlat.NewVirtualTask()
		out, err := eng.RunContext(context.Background(), task, p, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if out.Len() != 1 {
			t.Logf("seed %d: output %d rows", seed, out.Len())
			return false
		}
		for i, c := range invoked {
			if c != 1 {
				t.Logf("seed %d: activity %d invoked %d times", seed, i, c)
				return false
			}
		}
		// Critical path: every activity costs 10ms; start = max(pred end).
		end := make([]time.Duration, n)
		var longest time.Duration
		for i := 0; i < n; i++ {
			var start time.Duration
			for j := 0; j < i; j++ {
				if adj[j][i] && end[j] > start {
					start = end[j]
				}
			}
			end[i] = start + 10*simlat.PaperMS
			if end[i] > longest {
				longest = end[i]
			}
		}
		if task.Elapsed() != longest {
			t.Logf("seed %d: elapsed %v, critical path %v", seed, task.Elapsed(), longest)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestNavigatorSerialSumProperty: under the serial navigator the elapsed
// time of any acyclic process equals the sum of its activity costs.
func TestNavigatorSerialSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		p := &Process{
			Name:   "serialrandom",
			Input:  []types.Column{},
			Output: types.Schema{{Name: "X", Type: types.Integer}},
		}
		for i := 0; i < n; i++ {
			p.Nodes = append(p.Nodes, &HelperActivity{
				Name: fmt.Sprintf("A%d", i),
				Fn: func(in map[string]*types.Table) (*types.Table, error) {
					out := types.NewTable(types.Schema{{Name: "X", Type: types.Integer}})
					out.MustAppend(types.Row{types.NewInt(1)})
					return out, nil
				},
			})
			for j := 0; j < i; j++ {
				if r.Intn(3) == 0 {
					p.Flow = append(p.Flow, ControlConnector{From: fmt.Sprintf("A%d", j), To: fmt.Sprintf("A%d", i)})
				}
			}
		}
		p.Result = "A0"
		eng := New(InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
			return nil, fmt.Errorf("unused")
		}), Costs{ContainerHandling: 7 * simlat.PaperMS})
		eng.SetSerial(true)
		task := simlat.NewVirtualTask()
		if _, err := eng.RunContext(context.Background(), task, p, nil); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := time.Duration(n) * 7 * simlat.PaperMS
		if task.Elapsed() != want {
			t.Logf("seed %d: elapsed %v, want %v", seed, task.Elapsed(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

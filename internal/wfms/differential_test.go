package wfms

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// The differential test runs seeded random processes every way the engine
// can run them — per row through RunDetailedContext, per row under the
// serial navigator, and as one batch through RunBatchContext, on the
// vectorised path and on the navigator fallback — and asserts that every
// way answers the same output tables with the same audit trails. A digest
// of the per-row answers and of every trail, timestamps included, pins the
// behaviour itself, so a change that moved every mode the same way shows
// too.

// differentialProcesses is how many seeded processes the test runs.
const differentialProcesses = 500

// differentialDigest is the SHA-256 of every answer and trail the seeded
// processes produce. It moves only when the engine's behaviour does.
const differentialDigest = "452a8332cc097c625efe8b9d3d5027b9645953a2627d050c8e14f02d2a8a6b82"

// abSchema is the container every generated activity answers.
func abSchema() types.Schema {
	return types.Schema{{Name: "A", Type: types.Integer}, {Name: "B", Type: types.Integer}}
}

// diffInvoker is a deterministic fake application system. A call answers
// zero, one or two (A, B) rows computed from the function name and the
// arguments, and spends virtual time that depends on them too. The loop
// body's functions answer one row: Step(c) moves the cursor on to c+1, so
// every do-until loop ends within four iterations, and Twice(a, b)
// answers (a, a+b).
var diffInvoker = InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
	s := int64(len(function) + len(system))
	for _, c := range function {
		s = s*7 + int64(c)
	}
	for _, a := range args {
		s = s*31 + a.Int()
	}
	if s < 0 {
		s = -s
	}
	task.Spend(simlat.PaperMS * time.Duration(1+s%3))
	out := types.NewTable(abSchema())
	switch function {
	case "Step":
		out.Rows = append(out.Rows, types.Row{types.NewInt(args[0].Int() + 1), types.NewInt(s % 13)})
		return out, nil
	case "Twice":
		out.Rows = append(out.Rows, types.Row{args[0], types.NewInt(args[0].Int() + args[1].Int())})
		return out, nil
	}
	n := 1
	switch s % 5 {
	case 0:
		n = 0
	case 1:
		n = 2
	}
	for j := int64(0); j < int64(n); j++ {
		out.Rows = append(out.Rows, types.Row{types.NewInt((s + j) % 10), types.NewInt((s*7 + j) % 13)})
	}
	return out, nil
})

// diffHelper combines the containers of its control predecessors (and the
// input container's first field): A counts their rows, -1 for a
// predecessor absent because its path died; B sums their A values. It
// answers no row when that sum is a multiple of four, so downstream
// activities see an empty source.
func diffHelper(preds []string) func(Containers) (*types.Table, error) {
	return func(in Containers) (*types.Table, error) {
		var a, b int64
		for _, p := range preds {
			t, ok := in.Get(p)
			if !ok {
				a--
				continue
			}
			a += int64(t.Len())
			for _, r := range t.Rows {
				b += r[0].Int()
			}
		}
		if inp, _ := in.Get("INPUT"); inp != nil && len(inp.Rows) == 1 && len(inp.Rows[0]) > 0 {
			b += inp.Rows[0][0].Int()
		}
		out := types.NewTable(abSchema())
		if b%4 != 0 {
			out.Rows = append(out.Rows, types.Row{types.NewInt(a), types.NewInt(b)})
		}
		return out, nil
	}
}

// loopBlock is a do-until block: its body calls Step on the cursor (and
// Twice on Step's answer when second is set), the loop stops once the
// answer's A is a multiple of four, and it feeds A back as the next
// cursor.
func loopBlock(name string, start Source, second, accumulate bool) *Block {
	body := &Process{
		Name:   name + "Body",
		Input:  []types.Column{{Name: "Cursor", Type: types.Integer}},
		Output: abSchema(),
		Nodes:  []Node{&FunctionActivity{Name: "Step", Function: "Step", Args: []Source{Input("Cursor")}}},
		Result: "Step",
	}
	if second {
		body.Nodes = append(body.Nodes, &FunctionActivity{Name: "Twice", System: "sys", Function: "Twice",
			Args: []Source{From("Step", "A"), From("step", "b")}})
		body.Flow = []ControlConnector{{From: "Step", To: "Twice"}}
		body.Result = "Twice"
	}
	return &Block{
		Name: name,
		Body: body,
		Args: map[string]Source{"Cursor": start},
		Until: func(out *types.Table) (bool, error) {
			return out.Len() == 0 || out.Rows[0][0].Int()%4 == 0, nil
		},
		Feedback: func(out *types.Table) (map[string]types.Value, error) {
			return map[string]types.Value{"Cursor": out.Rows[0][0]}, nil
		},
		Accumulate: accumulate,
	}
}

// randomProcess builds a seeded acyclic process of 2–7 nodes over function
// and helper activities. A plain process has no conditions and no block,
// so a batch of it runs vectorised; the others may carry transition
// conditions, OR-joins at helpers and one do-until block. Data flows only
// from control predecessors, and a function activity or block never joins
// with OR, so no run fails.
func randomProcess(r *rand.Rand, id int, plain bool) *Process {
	n := 2 + r.Intn(6)
	p := &Process{
		Name:   fmt.Sprintf("Random%d", id),
		Input:  []types.Column{{Name: "X", Type: types.Integer}, {Name: "Yy", Type: types.Integer}},
		Output: abSchema(),
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("Node%d", i)
	}
	block := -1
	if !plain && r.Intn(2) == 0 {
		block = r.Intn(n)
	}
	for i := 0; i < n; i++ {
		var preds []string
		for j := 0; j < i; j++ {
			if r.Intn(3) == 0 {
				cc := ControlConnector{From: names[j], To: names[i]}
				if !plain && r.Intn(4) == 0 {
					even := r.Intn(2) == 0
					cc.Condition = func(out *types.Table) (bool, error) {
						return out.Len() > 0 && (out.Rows[0][0].Int()%2 == 0) == even, nil
					}
				}
				p.Flow = append(p.Flow, cc)
				preds = append(preds, names[j])
			}
		}
		// Sources spell node and field names in any case.
		source := func() Source {
			switch k := r.Intn(5); {
			case k == 0:
				return Const(types.NewInt(int64(r.Intn(9))))
			case k <= 2 || len(preds) == 0:
				return Input([]string{"X", "yy", "x", "YY"}[r.Intn(4)])
			default:
				from := preds[r.Intn(len(preds))]
				if r.Intn(2) == 0 {
					from = strings.ToLower(from)
				}
				return From(from, []string{"A", "b"}[r.Intn(2)])
			}
		}
		switch {
		case i == block:
			p.Nodes = append(p.Nodes, loopBlock(names[i], source(), r.Intn(2) == 0, r.Intn(2) == 0))
		case r.Intn(4) == 0:
			keys := make([]string, len(preds))
			for k, pr := range preds {
				keys[k] = strings.ToLower(pr)
			}
			p.Nodes = append(p.Nodes, &HelperActivity{Name: names[i], Fn: diffHelper(keys)})
			if !plain && len(preds) > 1 && r.Intn(2) == 0 {
				if p.Starts == nil {
					p.Starts = map[string]StartCondition{}
				}
				p.Starts[strings.ToUpper(names[i])] = StartAny
			}
		default:
			a := &FunctionActivity{Name: names[i], Function: fmt.Sprintf("F%d", r.Intn(3))}
			if r.Intn(3) == 0 {
				a.System = "sys"
			}
			for k := r.Intn(3); k > 0; k-- {
				a.Args = append(a.Args, source())
			}
			p.Nodes = append(p.Nodes, a)
		}
	}
	p.Result = names[n-1]
	return p
}

// conditioned is a second Process value with p's nodes and an always-true
// condition on every connector: it answers what p answers, but a batch of
// it takes the navigator fallback.
func conditioned(p *Process) *Process {
	q := *p
	q.Flow = make([]ControlConnector, len(p.Flow))
	for i, cc := range p.Flow {
		cc.Condition = func(*types.Table) (bool, error) { return true, nil }
		q.Flow[i] = cc
	}
	return &q
}

// auditKey renders one trail entry; withAt keeps its virtual instant.
func auditKey(ev AuditEvent, withAt bool) string {
	k := fmt.Sprintf("%d|%s|%s|%d", ev.Row, ev.Node, ev.Event, ev.Rows)
	if withAt {
		k = fmt.Sprintf("%d|%s", ev.At, k)
	}
	return k
}

// multiset is a trail as a sorted list of keys: equal multisets compare
// equal whatever order the entries were appended in.
func multiset(trail []AuditEvent, withAt bool, row int) []string {
	out := make([]string, len(trail))
	for i, ev := range trail {
		if row >= 0 {
			ev.Row = row
		}
		out[i] = auditKey(ev, withAt)
	}
	slices.Sort(out)
	return out
}

// settled is a vectorised trail's per-row entries and a per-row run's
// completions, with a vectorised "skipped" (no data) read as a completion
// of no rows: the one way the two paths' trails may differ.
func settled(trail []AuditEvent, row int) []string {
	var out []string
	for _, ev := range trail {
		if ev.Event == "started" {
			continue
		}
		if ev.Event == "skipped" {
			ev.Event = "completed"
		}
		if row >= 0 {
			ev.Row = row
		}
		out = append(out, auditKey(ev, false))
	}
	slices.Sort(out)
	return out
}

// batchTrail runs one batch under a statement context and returns its
// outputs and its instance's trail.
func batchTrail(t *testing.T, eng *Engine, p *Process, inputs []map[string]types.Value) ([]*types.Table, []AuditEvent) {
	t.Helper()
	ctx, cnt := obs.WithStmtCounters(context.Background())
	outs, err := eng.RunBatchContext(ctx, simlat.NewVirtualTask(), p, inputs)
	if err != nil {
		t.Fatalf("%s: batch: %v", p.Name, err)
	}
	trail := cnt.Snapshot().Trail
	if len(trail) != 1 || len(outs) != len(inputs) {
		t.Fatalf("%s: batch of %d gave %d outputs and %d instances", p.Name, len(inputs), len(outs), len(trail))
	}
	return outs, trail[0].Audit
}

func TestNavigatorModesAgree(t *testing.T) {
	eng := New(diffInvoker, testCosts())
	serial := New(diffInvoker, testCosts())
	serial.SetSerial(true)
	h := sha256.New()
	vectorised, fallback := 0, 0
	for id := 0; id < differentialProcesses; id++ {
		r := rand.New(rand.NewSource(int64(id)))
		p := randomProcess(r, id, id%2 == 0)
		inputs := make([]map[string]types.Value, 1+r.Intn(8))
		for i := range inputs {
			inputs[i] = map[string]types.Value{"x": types.NewInt(int64(r.Intn(10))), "yy": types.NewInt(int64(r.Intn(10)))}
		}
		fmt.Fprintf(h, "process %d\n", id)

		outs := make([]*types.Table, len(inputs))
		audits := make([][]AuditEvent, len(inputs))
		for i, in := range inputs {
			task := simlat.NewVirtualTask()
			res, err := eng.RunDetailedContext(context.Background(), task, p, in)
			if err != nil {
				t.Fatalf("%s row %d: %v", p.Name, i, err)
			}
			outs[i], audits[i] = res.Output, res.Audit
			fmt.Fprintf(h, "row %d elapsed %d activities %d\n%s%s\n", i, task.Elapsed(), res.Activities,
				res.Output, strings.Join(multiset(res.Audit, true, -1), "\n"))

			stask := simlat.NewVirtualTask()
			sres, err := serial.RunDetailedContext(context.Background(), stask, p, in)
			if err != nil {
				t.Fatalf("%s row %d serial: %v", p.Name, i, err)
			}
			if got, want := sres.Output.String(), res.Output.String(); got != want {
				t.Fatalf("%s row %d: serial output\n%s\nparallel output\n%s", p.Name, i, got, want)
			}
			if !slices.Equal(multiset(sres.Audit, false, -1), multiset(res.Audit, false, -1)) || sres.Activities != res.Activities {
				t.Fatalf("%s row %d: serial trail %v\nparallel trail %v", p.Name, i, sres.Audit, res.Audit)
			}
			fmt.Fprintf(h, "serial elapsed %d\n%s\n", stask.Elapsed(), strings.Join(multiset(sres.Audit, true, -1), "\n"))
		}

		variants := []*Process{p}
		if vectorizable(p) && len(p.Flow) > 0 {
			variants = append(variants, conditioned(p))
		}
		for _, v := range variants {
			bouts, trail := batchTrail(t, eng, v, inputs)
			var want, got []string
			if vectorizable(v) {
				vectorised++
				for i := range inputs {
					want = append(want, settled(audits[i], i)...)
				}
				got = settled(trail, -1)
			} else {
				fallback++
				for i := range inputs {
					want = append(want, multiset(audits[i], false, i)...)
				}
				got = multiset(trail, false, -1)
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s batch of %d (vectorised %v): trail\n%s\nper-row trails\n%s",
					v.Name, len(inputs), vectorizable(v), strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			for i := range inputs {
				if got, want := bouts[i].String(), outs[i].String(); got != want {
					t.Fatalf("%s batch row %d (vectorised %v): output\n%s\nper-row output\n%s", v.Name, i, vectorizable(v), got, want)
				}
			}
			fmt.Fprintf(h, "batch vectorised %v\n%s\n", vectorizable(v), strings.Join(multiset(trail, true, -1), "\n"))
		}
	}
	if vectorised == 0 || fallback == 0 {
		t.Fatalf("batches: %d vectorised, %d fallback; both paths must run", vectorised, fallback)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != differentialDigest {
		t.Errorf("answers and trails digest %s, pinned %s", got, differentialDigest)
	}
}

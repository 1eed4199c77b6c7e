package simlat

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualSpendAndElapsed(t *testing.T) {
	task := NewVirtualTask()
	task.Spend(10 * PaperMS)
	task.Spend(5 * PaperMS)
	if got := task.Elapsed(); got != 15*PaperMS {
		t.Errorf("Elapsed = %v, want 15ms", got)
	}
	if got := task.Spent(); got != 15*PaperMS {
		t.Errorf("Spent = %v, want 15ms", got)
	}
	task.Spend(-3 * PaperMS) // negative spends are ignored
	task.Spend(0)
	if got := task.Elapsed(); got != 15*PaperMS {
		t.Errorf("Elapsed after no-op spends = %v", got)
	}
}

func TestForkJoinParallelSemantics(t *testing.T) {
	task := NewVirtualTask()
	task.Spend(10 * PaperMS)
	b1 := task.Fork()
	b2 := task.Fork()
	b1.Spend(100 * PaperMS)
	b2.Spend(40 * PaperMS)
	task.Join(b1, b2)
	// Parallel elapsed is the max of the branches, not the sum.
	if got := task.Elapsed(); got != 110*PaperMS {
		t.Errorf("Elapsed = %v, want 110ms", got)
	}
	// Spent work is the sum of all branches.
	if got := task.Spent(); got != 150*PaperMS {
		t.Errorf("Spent = %v, want 150ms", got)
	}
}

func TestSequentialVsParallelOrdering(t *testing.T) {
	seq := NewVirtualTask()
	seq.Spend(60 * PaperMS)
	seq.Spend(60 * PaperMS)

	par := NewVirtualTask()
	a, b := par.Fork(), par.Fork()
	a.Spend(60 * PaperMS)
	b.Spend(60 * PaperMS)
	par.Join(a, b)

	if par.Elapsed() >= seq.Elapsed() {
		t.Errorf("parallel (%v) must beat sequential (%v)", par.Elapsed(), seq.Elapsed())
	}
}

func TestAdvanceTo(t *testing.T) {
	task := NewVirtualTask()
	task.Spend(5 * PaperMS)
	task.AdvanceTo(20 * PaperMS)
	if got := task.Elapsed(); got != 20*PaperMS {
		t.Errorf("Elapsed after AdvanceTo = %v", got)
	}
	task.AdvanceTo(10 * PaperMS) // never moves backwards
	if got := task.Elapsed(); got != 20*PaperMS {
		t.Errorf("AdvanceTo moved the clock backwards: %v", got)
	}
	// AdvanceTo does not charge work.
	if got := task.Spent(); got != 5*PaperMS {
		t.Errorf("Spent = %v, want 5ms", got)
	}
}

func TestFreeTaskIgnoresEverything(t *testing.T) {
	task := Free()
	task.Spend(time.Hour)
	task.Step("x", time.Hour)
	if task.Elapsed() != 0 || task.Spent() != 0 {
		t.Error("free task must not account")
	}
	var nilTask *Task
	nilTask.Spend(time.Hour) // must not panic
	nilTask.Step("x", 1)
	nilTask.Join(task)
	if nilTask.Elapsed() != 0 || nilTask.Spent() != 0 || nilTask.Fork() != nil {
		t.Error("nil task must be inert")
	}
	if nilTask.Recorder() != nil {
		t.Error("nil task recorder must be nil")
	}
	if nilTask.Mode() != ModeFree {
		t.Error("nil task mode must be free")
	}
}

func TestStopwatchReadsWallTime(t *testing.T) {
	sw := StartStopwatch()
	time.Sleep(2 * time.Millisecond)
	first := sw.Elapsed()
	if first < 2*time.Millisecond {
		t.Errorf("stopwatch elapsed = %v after a 2ms sleep", first)
	}
	if second := sw.Elapsed(); second < first {
		t.Errorf("stopwatch ran backwards: %v then %v", first, second)
	}
}

func TestRecorderStepsAndPercentages(t *testing.T) {
	rec := NewRecorder()
	task := NewVirtualTask()
	task.SetRecorder(rec)
	if task.Recorder() != rec {
		t.Fatal("recorder not attached")
	}
	task.Step("a", 30*PaperMS)
	task.Step("b", 70*PaperMS)
	task.Step("a", 20*PaperMS)
	steps := rec.Steps()
	if len(steps) != 2 || steps[0].Name != "a" || steps[0].Total != 50*PaperMS {
		t.Errorf("Steps = %v", steps)
	}
	if rec.Total() != 120*PaperMS {
		t.Errorf("Total = %v", rec.Total())
	}
	pcts := rec.Percentages()
	if pcts[0].Percent != 42 || pcts[1].Percent != 58 {
		t.Errorf("Percentages = %v", pcts)
	}
	sorted := rec.SortedSteps()
	if sorted[0].Name != "b" {
		t.Errorf("SortedSteps = %v", sorted)
	}
}

func TestRecorderSharedAcrossForks(t *testing.T) {
	rec := NewRecorder()
	task := NewVirtualTask()
	task.SetRecorder(rec)
	var wg sync.WaitGroup
	branches := make([]*Task, 8)
	for i := range branches {
		b := task.Fork()
		branches[i] = b
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Step("act", 10*PaperMS)
		}()
	}
	wg.Wait()
	task.Join(branches...)
	if rec.Total() != 80*PaperMS {
		t.Errorf("shared recorder total = %v", rec.Total())
	}
	if task.Elapsed() != 10*PaperMS {
		t.Errorf("parallel elapsed = %v, want 10ms", task.Elapsed())
	}
}

func TestLabelledSpendAttribution(t *testing.T) {
	rec := NewRecorder()
	task := NewVirtualTask()
	task.SetRecorder(rec)
	prev := task.SetLabel("Process activities")
	if prev != "" {
		t.Errorf("previous label = %q", prev)
	}
	task.Spend(10 * PaperMS) // attributed via label
	task.Step("RMI call", 3*PaperMS)
	task.Spend(5 * PaperMS) // label restored after Step
	task.SetLabel("")
	task.Spend(2 * PaperMS) // unlabelled: charged but not attributed
	steps := rec.Steps()
	if len(steps) != 2 || steps[0].Total != 15*PaperMS || steps[1].Total != 3*PaperMS {
		t.Errorf("steps = %v", steps)
	}
	if task.Spent() != 20*PaperMS {
		t.Errorf("spent = %v", task.Spent())
	}
	// Forks inherit the current label.
	task.SetLabel("act")
	b := task.Fork()
	b.Spend(PaperMS)
	if rec.Steps()[2].Name != "act" {
		t.Errorf("fork label not inherited: %v", rec.Steps())
	}
}

func TestEmptyRecorderPercentages(t *testing.T) {
	rec := NewRecorder()
	if got := rec.Percentages(); len(got) != 0 {
		t.Errorf("Percentages on empty recorder = %v", got)
	}
	rec.Add("z", 0)
	pcts := rec.Percentages()
	if len(pcts) != 1 || pcts[0].Percent != 0 {
		t.Errorf("zero-total percentages = %v", pcts)
	}
}

func TestDefaultProfileCalibration(t *testing.T) {
	p := DefaultProfile()
	// Recompute the documented totals for GetNoSuppComp (3 activities).
	wf := p.UDTFStart + p.UDTFProcess + p.RMICall + p.ControllerInvokeWf + p.WfStart +
		3*(p.ActivityJVMBoot+p.ContainerHandling+2*PaperMS) +
		3*p.WfNavigate + p.RMIReturn + p.UDTFFinish
	ud := p.IUDTFStart + 3*(p.AUDTFPrepare+p.RMICall+p.ControllerDispatch+2*PaperMS+p.AUDTFFinish+p.RMIReturn) + p.IUDTFFinish
	ratio := float64(wf) / float64(ud)
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("calibration broken: WfMS/UDTF ratio = %.2f (wf=%v udtf=%v)", ratio, wf, ud)
	}
	// Controller-attributable shares: ~8% (WfMS) and ~25% (UDTF).
	wfCtl := p.RMICall + p.RMIReturn + p.ControllerInvokeWf
	udCtl := 3 * (p.RMICall + p.RMIReturn + p.ControllerDispatch)
	if s := float64(wfCtl) / float64(wf); s < 0.06 || s > 0.10 {
		t.Errorf("WfMS controller share = %.3f, want ~0.08", s)
	}
	if s := float64(udCtl) / float64(ud); s < 0.22 || s > 0.28 {
		t.Errorf("UDTF controller share = %.3f, want ~0.25", s)
	}
}

// Property: for any split of work into two parallel branches, elapsed time
// equals the max branch and spent equals the sum.
func TestForkJoinProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := NewVirtualTask()
		pre := time.Duration(r.Intn(50)) * PaperMS
		task.Spend(pre)
		n := 1 + r.Intn(5)
		branches := make([]*Task, n)
		var maxd, sum time.Duration
		for i := range branches {
			branches[i] = task.Fork()
			d := time.Duration(r.Intn(100)) * PaperMS
			branches[i].Spend(d)
			if d > maxd {
				maxd = d
			}
			sum += d
		}
		task.Join(branches...)
		return task.Elapsed() == pre+maxd && task.Spent() == pre+sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Recorder and span sink must be safe under concurrently running forked
// branches (ParallelApply workers all feed the same Recorder). Run under
// -race.
func TestRecorderConcurrentForkedBranches(t *testing.T) {
	task := NewVirtualTask()
	rec := NewRecorder()
	task.SetRecorder(rec)
	sink := &countingSink{}
	task.SetSpanSink(sink)

	const workers, steps = 8, 50
	branches := task.ForkN(workers)
	var wg sync.WaitGroup
	for w, b := range branches {
		wg.Add(1)
		go func(w int, b *Task) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				b.Step("work", PaperMS)
				if i%10 == 0 {
					b.SetLabel("relabel")
					b.Spend(PaperMS)
					b.SetLabel("")
				}
			}
		}(w, b)
	}
	wg.Wait()
	task.Join(branches...)

	want := time.Duration(workers*steps) * PaperMS
	var got time.Duration
	for _, st := range rec.Steps() {
		got += st.Total
	}
	// The relabelled spends add workers*5 extra paper ms.
	want += time.Duration(workers*5) * PaperMS
	if got != want {
		t.Errorf("recorder total = %v, want %v", got, want)
	}
	if sink.total() != want {
		t.Errorf("sink total = %v, want %v", sink.total(), want)
	}
	// Branches inherited the sink snapshot; the parent still has it.
	if task.SpanSink() != SpanSink(sink) {
		t.Error("parent sink lost after join")
	}
}

// countingSink is a minimal SpanSink for concurrency tests.
type countingSink struct {
	mu  sync.Mutex
	sum time.Duration
}

func (c *countingSink) AddStep(label string, d time.Duration) {
	c.mu.Lock()
	c.sum += d
	c.mu.Unlock()
}

func (c *countingSink) total() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum
}

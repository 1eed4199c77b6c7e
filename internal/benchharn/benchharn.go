// Package benchharn is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Sect. 3 and Sect. 4) on the
// simulated testbed.
//
//	E1 — Sect. 3 capability table (mapping complexity per architecture)
//	E2 — Fig. 5 elapsed-time comparison over the mapping catalog
//	E3 — Fig. 6 time-portion breakdowns for GetNoSuppComp
//	E4 — cold / warm / hot boot states
//	E5 — parallel vs sequential function under both architectures
//	E6 — do-until loop scaling (AllCompNames)
//	E7 — controller ablation
//	E8 — batch scaling (extension: lateral driver-table joins)
//	E9 — intra-query parallelism sweep (extension: ParallelApply DOP)
//	E10 — Fig. 6 from live spans (extension: trace-derived breakdowns)
//
// All measurements run on the deterministic virtual clock, so the harness
// produces identical numbers on every machine.
package benchharn

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/exec"
	"fedwf/internal/fedfunc"
	"fedwf/internal/simlat"
	"fedwf/internal/udtf"
	"fedwf/internal/wfms"
)

// Harness owns one wired instance of each architecture over shared
// application systems.
type Harness struct {
	profile simlat.Profile
	apps    *appsys.Registry
	wf, ud  *fedfunc.Stack
}

// New builds a harness with the calibrated default profile.
func New() (*Harness, error) {
	return NewWithProfile(simlat.DefaultProfile())
}

// NewWithProfile builds a harness with a custom cost profile.
func NewWithProfile(profile simlat.Profile) (*Harness, error) {
	apps, err := appsys.BuildScenario()
	if err != nil {
		return nil, err
	}
	wf, err := fedfunc.NewStack(fedfunc.ArchWfMS, fedfunc.Options{Profile: profile, Apps: apps})
	if err != nil {
		return nil, err
	}
	ud, err := fedfunc.NewStack(fedfunc.ArchUDTF, fedfunc.Options{Profile: profile, Apps: apps})
	if err != nil {
		return nil, err
	}
	return &Harness{profile: profile, apps: apps, wf: wf, ud: ud}, nil
}

// Profile returns the harness's cost profile.
func (h *Harness) Profile() simlat.Profile { return h.profile }

// WfMSStack returns the workflow-architecture stack.
func (h *Harness) WfMSStack() *fedfunc.Stack { return h.wf }

// UDTFStack returns the UDTF-architecture stack.
func (h *Harness) UDTFStack() *fedfunc.Stack { return h.ud }

// measureHot returns the virtual elapsed time of one repeated (hot) call.
func measureHot(ctx context.Context, s *fedfunc.Stack, spec *fedfunc.Spec, sample int) (time.Duration, error) {
	if _, err := s.CallSpecContext(ctx, simlat.Free(), spec, sample); err != nil {
		return 0, err
	}
	task := simlat.NewVirtualTask()
	if _, err := s.CallSpecContext(ctx, task, spec, sample); err != nil {
		return 0, err
	}
	return task.Elapsed(), nil
}

// ------------------------------------------------------------------- E1

// CapabilityRow is one line of the Sect. 3 table, annotated with whether
// the mapping actually executed on each stack.
type CapabilityRow struct {
	Case          string
	Function      string
	UDTFMechanism string
	WfMSMechanism string
	UDTFRuns      bool
	WfMSRuns      bool
}

// Capabilities executes every mapping on both stacks and reports the
// Sect. 3 support matrix from observed behaviour.
func (h *Harness) Capabilities(ctx context.Context) ([]CapabilityRow, error) {
	var rows []CapabilityRow
	for _, spec := range fedfunc.Specs() {
		row := CapabilityRow{
			Case:          spec.Case.String(),
			Function:      spec.Name,
			UDTFMechanism: spec.UDTFMechanism,
			WfMSMechanism: spec.WfMSMechanism,
		}
		if _, err := h.wf.CallSpecContext(ctx, simlat.Free(), spec, 0); err == nil {
			row.WfMSRuns = true
		}
		if spec.SupportsUDTF() {
			if _, err := h.ud.CallSpecContext(ctx, simlat.Free(), spec, 0); err == nil {
				row.UDTFRuns = true
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderCapabilities prints the support matrix like the paper's table.
func RenderCapabilities(rows []CapabilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-20s %-9s %-9s %-55s %s\n",
		"Case", "Federated function", "UDTF", "WfMS", "UDTF mechanism", "WfMS mechanism")
	b.WriteString(strings.Repeat("-", 150) + "\n")
	mark := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-20s %-9s %-9s %-55s %s\n",
			r.Case, r.Function, mark(r.UDTFRuns), mark(r.WfMSRuns), r.UDTFMechanism, r.WfMSMechanism)
	}
	return b.String()
}

// ------------------------------------------------------------------- E2

// Fig5Row is one bar pair of Fig. 5.
type Fig5Row struct {
	Function string
	Case     string
	LocalFns int
	WfMS     time.Duration // 0 when unsupported
	UDTF     time.Duration // 0 when unsupported
	Ratio    float64       // WfMS / UDTF, 0 when either is unsupported
}

// Fig5 measures every federated function of the catalog on both
// architectures with repeated (hot) calls.
func (h *Harness) Fig5(ctx context.Context) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, spec := range fedfunc.Specs() {
		row := Fig5Row{Function: spec.Name, Case: spec.Case.String(), LocalFns: len(spec.LocalFunctions)}
		if spec.Name == "AllCompNames" {
			// The loop executes one local function per component; count the
			// calls it actually makes.
			row.LocalFns = appsys.NumComponents
		}
		d, err := measureHot(ctx, h.wf, spec, 0)
		if err != nil {
			return nil, fmt.Errorf("benchharn: %s on WfMS: %w", spec.Name, err)
		}
		row.WfMS = d
		if spec.SupportsUDTF() {
			d, err := measureHot(ctx, h.ud, spec, 0)
			if err != nil {
				return nil, fmt.Errorf("benchharn: %s on UDTF: %w", spec.Name, err)
			}
			row.UDTF = d
			row.Ratio = float64(row.WfMS) / float64(row.UDTF)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig5 prints the comparison like the paper's bar chart, as rows.
func RenderFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-18s %7s %12s %12s %8s\n",
		"Federated function", "Case", "LocalFn", "WfMS", "UDTF", "Ratio")
	b.WriteString(strings.Repeat("-", 84) + "\n")
	for _, r := range rows {
		udtfCol, ratioCol := "not supp.", "-"
		if r.UDTF > 0 {
			udtfCol = fmtPaperMS(r.UDTF)
			ratioCol = fmt.Sprintf("%.2f", r.Ratio)
		}
		fmt.Fprintf(&b, "%-22s %-18s %7d %12s %12s %8s\n",
			r.Function, r.Case, r.LocalFns, fmtPaperMS(r.WfMS), udtfCol, ratioCol)
	}
	return b.String()
}

// ------------------------------------------------------------------- E3

// Breakdown is one architecture's Fig. 6 time-portion table.
type Breakdown struct {
	Arch  string
	Total time.Duration
	Steps []BreakdownStep
}

// BreakdownStep is one labelled portion.
type BreakdownStep struct {
	Name    string
	Total   time.Duration
	Percent int
}

// Fig6 produces the step breakdown of one hot GetNoSuppComp call under
// each architecture.
func (h *Harness) Fig6(ctx context.Context) (wf, ud *Breakdown, err error) {
	spec, err := fedfunc.SpecByName("GetNoSuppComp")
	if err != nil {
		return nil, nil, err
	}
	wf, err = breakdownOf(ctx, h.wf, spec)
	if err != nil {
		return nil, nil, err
	}
	ud, err = breakdownOf(ctx, h.ud, spec)
	if err != nil {
		return nil, nil, err
	}
	return wf, ud, nil
}

func breakdownOf(ctx context.Context, s *fedfunc.Stack, spec *fedfunc.Spec) (*Breakdown, error) {
	if _, err := s.CallSpecContext(ctx, simlat.Free(), spec, 0); err != nil {
		return nil, err
	}
	task := simlat.NewVirtualTask()
	rec := simlat.NewRecorder()
	task.SetRecorder(rec)
	if _, err := s.CallSpecContext(ctx, task, spec, 0); err != nil {
		return nil, err
	}
	out := &Breakdown{Arch: s.Arch().String(), Total: rec.Total()}
	for _, p := range rec.Percentages() {
		var total time.Duration
		for _, st := range rec.Steps() {
			if st.Name == p.Name {
				total = st.Total
			}
		}
		out.Steps = append(out.Steps, BreakdownStep{Name: p.Name, Total: total, Percent: p.Percent})
	}
	return out, nil
}

// RenderBreakdown prints one Fig. 6 table.
func RenderBreakdown(b *Breakdown) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (total %s)\n", b.Arch, fmtPaperMS(b.Total))
	fmt.Fprintf(&sb, "  %-42s %10s %6s\n", "Step", "Time", "Share")
	sb.WriteString("  " + strings.Repeat("-", 60) + "\n")
	for _, s := range b.Steps {
		fmt.Fprintf(&sb, "  %-42s %10s %5d%%\n", s.Name, fmtPaperMS(s.Total), s.Percent)
	}
	return sb.String()
}

// ------------------------------------------------------------------- E4

// BootRow reports the three boot states of one function under one
// architecture.
type BootRow struct {
	Arch     string
	Function string
	Cold     time.Duration
	Warm     time.Duration
	Hot      time.Duration
}

// BootStates measures the initial (cold), after-other-function (warm), and
// repeated (hot) call times of a federated function under both stacks.
func (h *Harness) BootStates(ctx context.Context, function string) ([]BootRow, error) {
	spec, err := fedfunc.SpecByName(function)
	if err != nil {
		return nil, err
	}
	var rows []BootRow
	for _, s := range []*fedfunc.Stack{h.wf, h.ud} {
		if !s.Supports(spec.Name) {
			continue
		}
		row := BootRow{Arch: s.Arch().String(), Function: spec.Name}
		measure := func(level udtf.BootLevel) (time.Duration, error) {
			s.Flush(level)
			task := simlat.NewVirtualTask()
			if _, err := s.CallSpecContext(ctx, task, spec, 0); err != nil {
				return 0, err
			}
			return task.Elapsed(), nil
		}
		if row.Cold, err = measure(udtf.FlushCold); err != nil {
			return nil, err
		}
		if row.Warm, err = measure(udtf.FlushWarm); err != nil {
			return nil, err
		}
		if row.Hot, err = measure(udtf.FlushHot); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderBootStates prints the E4 table.
func RenderBootStates(rows []BootRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-18s %12s %12s %12s\n", "Architecture", "Function", "Cold", "Warm", "Hot")
	b.WriteString(strings.Repeat("-", 88) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-18s %12s %12s %12s\n",
			r.Arch, r.Function, fmtPaperMS(r.Cold), fmtPaperMS(r.Warm), fmtPaperMS(r.Hot))
	}
	return b.String()
}

// ------------------------------------------------------------------- E5

// ParallelRow compares the parallel and sequential two-function mappings
// under one architecture.
type ParallelRow struct {
	Arch       string
	Parallel   time.Duration // GetSuppQualRelia
	Sequential time.Duration // GetSuppQual
}

// ParallelVsSequential reproduces the Sect. 4 observation about parallel
// activities.
func (h *Harness) ParallelVsSequential(ctx context.Context) ([]ParallelRow, error) {
	par, err := fedfunc.SpecByName("GetSuppQualRelia")
	if err != nil {
		return nil, err
	}
	seq, err := fedfunc.SpecByName("GetSuppQual")
	if err != nil {
		return nil, err
	}
	var rows []ParallelRow
	for _, s := range []*fedfunc.Stack{h.wf, h.ud} {
		row := ParallelRow{Arch: s.Arch().String()}
		if row.Parallel, err = measureHot(ctx, s, par, 0); err != nil {
			return nil, err
		}
		if row.Sequential, err = measureHot(ctx, s, seq, 0); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderParallel prints the E5 table.
func RenderParallel(rows []ParallelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %s\n", "Architecture", "Parallel", "Sequential", "Faster variant")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, r := range rows {
		faster := "sequential"
		if r.Parallel < r.Sequential {
			faster = "parallel"
		}
		fmt.Fprintf(&b, "%-28s %14s %14s %s\n", r.Arch, fmtPaperMS(r.Parallel), fmtPaperMS(r.Sequential), faster)
	}
	return b.String()
}

// ------------------------------------------------------------------- E6

// LoopRow is one point of the loop-scaling series.
type LoopRow struct {
	Calls   int
	Elapsed time.Duration
}

// LoopScaling runs AllCompNames workflows with increasing iteration
// counts and reports the elapsed times; the paper observes a linear rise.
func (h *Harness) LoopScaling(ctx context.Context, counts []int) ([]LoopRow, error) {
	// Run the loop directly on the workflow stack's process with a start
	// cursor limiting the iteration count.
	var rows []LoopRow
	for _, n := range counts {
		if n < 1 || n > appsys.NumComponents {
			return nil, fmt.Errorf("benchharn: loop count %d out of range 1..%d", n, appsys.NumComponents)
		}
		process := fedfunc.AllCompNamesProcess(appsys.NumComponents - n)
		task, err := h.runProcessHot(ctx, process)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LoopRow{Calls: n, Elapsed: task})
	}
	return rows, nil
}

// runProcessHot measures one process run through a scratch workflow UDTF
// on a fresh stack sharing the harness's application systems.
func (h *Harness) runProcessHot(ctx context.Context, process *wfms.Process) (time.Duration, error) {
	stack, err := fedfunc.NewStack(fedfunc.ArchWfMS, fedfunc.Options{Profile: h.profile, Apps: h.apps})
	if err != nil {
		return 0, err
	}
	process.Name = process.Name + "_Scaled"
	if err := stack.RegisterProcess(process); err != nil {
		return 0, err
	}
	if _, err := stack.CallContext(ctx, simlat.Free(), process.Name, nil); err != nil {
		return 0, err
	}
	task := simlat.NewVirtualTask()
	if _, err := stack.CallContext(ctx, task, process.Name, nil); err != nil {
		return 0, err
	}
	return task.Elapsed(), nil
}

// RenderLoop prints the E6 series with a linearity check column.
func RenderLoop(rows []LoopRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %14s %16s\n", "Calls", "Elapsed", "Per call")
	b.WriteString(strings.Repeat("-", 42) + "\n")
	for _, r := range rows {
		per := time.Duration(0)
		if r.Calls > 0 {
			per = r.Elapsed / time.Duration(r.Calls)
		}
		fmt.Fprintf(&b, "%8d %14s %16s\n", r.Calls, fmtPaperMS(r.Elapsed), fmtPaperMS(per))
	}
	return b.String()
}

// ------------------------------------------------------------------- E7

// AblationRow reports one architecture with and without the controller.
type AblationRow struct {
	Arch      string
	With      time.Duration
	Without   time.Duration
	SavingPct float64
}

// ControllerAblation measures GetNoSuppComp with the controller in the
// path and with direct connections.
func (h *Harness) ControllerAblation(ctx context.Context) ([]AblationRow, float64, float64, error) {
	spec, err := fedfunc.SpecByName("GetNoSuppComp")
	if err != nil {
		return nil, 0, 0, err
	}
	var rows []AblationRow
	measure := func(arch fedfunc.Arch, direct bool) (time.Duration, error) {
		s, err := fedfunc.NewStack(arch, fedfunc.Options{Profile: h.profile, Apps: h.apps, Direct: direct})
		if err != nil {
			return 0, err
		}
		return measureHot(ctx, s, spec, 0)
	}
	var withT, withoutT [2]time.Duration
	for i, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		w, err := measure(arch, false)
		if err != nil {
			return nil, 0, 0, err
		}
		wo, err := measure(arch, true)
		if err != nil {
			return nil, 0, 0, err
		}
		withT[i], withoutT[i] = w, wo
		rows = append(rows, AblationRow{
			Arch:      arch.String(),
			With:      w,
			Without:   wo,
			SavingPct: (1 - float64(wo)/float64(w)) * 100,
		})
	}
	ratioWith := float64(withT[0]) / float64(withT[1])
	ratioWithout := float64(withoutT[0]) / float64(withoutT[1])
	return rows, ratioWith, ratioWithout, nil
}

// RenderAblation prints the E7 table.
func RenderAblation(rows []AblationRow, ratioWith, ratioWithout float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %10s\n", "Architecture", "With ctl", "Without ctl", "Saving")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %14s %14s %9.1f%%\n", r.Arch, fmtPaperMS(r.With), fmtPaperMS(r.Without), r.SavingPct)
	}
	fmt.Fprintf(&b, "WfMS/UDTF ratio: %.2f with controller -> %.2f without\n", ratioWith, ratioWithout)
	return b.String()
}

// fmtPaperMS renders a duration in paper milliseconds.
func fmtPaperMS(d time.Duration) string {
	return fmt.Sprintf("%.1f ms", float64(d)/float64(simlat.PaperMS))
}

// ------------------------------------------------------------------- E8

// BatchRow is one point of the batch-scaling series (extension
// experiment: the paper defers "scalability" to future work).
type BatchRow struct {
	Calls int
	WfMS  time.Duration
	UDTF  time.Duration
}

// BatchScaling drives both architectures with a batch query — a lateral
// join of a local driver table against the federated function
// GetSuppQualRelia — and reports elapsed time per batch size. Both
// architectures scale linearly in the number of federated calls; the gap
// between them is the per-call overhead difference of Fig. 5.
func (h *Harness) BatchScaling(ctx context.Context, sizes []int) ([]BatchRow, error) {
	var rows []BatchRow
	for _, n := range sizes {
		if n < 1 {
			return nil, fmt.Errorf("benchharn: batch size %d out of range", n)
		}
		row := BatchRow{Calls: n}
		for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
			stack, err := fedfunc.NewStack(arch, fedfunc.Options{Profile: h.profile, Apps: h.apps})
			if err != nil {
				return nil, err
			}
			session := stack.Engine().NewSession()
			session.MustExecContext(ctx, "CREATE TABLE batch_driver (SupplierNo INT)")
			for i := 0; i < n; i++ {
				session.MustExecContext(ctx, fmt.Sprintf("INSERT INTO batch_driver VALUES (%d)", 1+i%appsys.NumSuppliers))
			}
			query := `SELECT COUNT(*) FROM batch_driver b, TABLE (GetSuppQualRelia(b.SupplierNo)) AS QR`
			if _, err := session.QueryContext(ctx, query); err != nil { // warm
				return nil, err
			}
			task := simlat.NewVirtualTask()
			session.SetTask(task)
			if _, err := session.QueryContext(ctx, query); err != nil {
				return nil, err
			}
			if arch == fedfunc.ArchWfMS {
				row.WfMS = task.Elapsed()
			} else {
				row.UDTF = task.Elapsed()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderBatch prints the E8 series.
func RenderBatch(rows []BatchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %14s %14s %8s\n", "Calls", "WfMS", "UDTF", "Ratio")
	b.WriteString(strings.Repeat("-", 50) + "\n")
	for _, r := range rows {
		ratio := float64(r.WfMS) / float64(r.UDTF)
		fmt.Fprintf(&b, "%8d %14s %14s %8.2f\n", r.Calls, fmtPaperMS(r.WfMS), fmtPaperMS(r.UDTF), ratio)
	}
	return b.String()
}

// ------------------------------------------------------------------- E9

// dopDriverRows is the batch size of the E9 sweep; suppliers cycle over
// dopDistinctKeys distinct numbers, so half the lateral invocations are
// duplicates and exercise the function cache under parallelism. Every DOP
// of the sweep divides dopDistinctKeys, which keeps each cache key pinned
// to one round-robin worker and the reported counters deterministic.
const (
	dopDriverRows   = 16
	dopDistinctKeys = 8
)

// DOPRow is one point of the intra-query parallelism sweep (extension
// experiment: parallel lateral execution).
type DOPRow struct {
	Arch     fedfunc.Arch
	Function string
	DOP      int // 1 = sequential plan
	Elapsed  time.Duration
	Speedup  float64 // sequential elapsed / this elapsed
	Stats    exec.CacheStats
}

// ParallelLateral sweeps the degree of parallelism over a lateral batch
// query — a 16-row driver table joined against a federated function — for
// both architectures and two mapping shapes: the independent composition
// GetSuppQualRelia and the 1:n mapping GetSuppGrade. DOP 1 runs the
// sequential plan; higher DOPs a parallel Apply, whose simlat Fork/Join
// accounting makes the virtual clock report the max-branch elapsed time.
// The session switches modes with SET PARALLELISM, so nested UDTF bodies
// plan with the same degree.
// The function cache is enabled throughout, so the rows also show the
// per-statement hit/miss/coalesced counters.
func (h *Harness) ParallelLateral(ctx context.Context, dops []int) ([]DOPRow, error) {
	var rows []DOPRow
	for _, fn := range []string{"GetSuppQualRelia", "GetSuppGrade"} {
		for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
			stack, err := fedfunc.NewStack(arch, fedfunc.Options{Profile: h.profile, Apps: h.apps})
			if err != nil {
				return nil, err
			}
			eng := stack.Engine()
			eng.SetFunctionCache(true)
			session := eng.NewSession()
			session.MustExecContext(ctx, "CREATE TABLE dop_driver (SupplierNo INT)")
			for i := 0; i < dopDriverRows; i++ {
				session.MustExecContext(ctx, fmt.Sprintf("INSERT INTO dop_driver VALUES (%d)", 1+i%dopDistinctKeys))
			}
			query := fmt.Sprintf(`SELECT COUNT(*) FROM dop_driver d, TABLE (%s(d.SupplierNo)) AS F`, fn)
			var seq time.Duration
			for _, dop := range dops {
				if dop < 1 {
					return nil, fmt.Errorf("benchharn: dop %d out of range", dop)
				}
				session.MustExecContext(ctx, fmt.Sprintf("SET PARALLELISM %d", dop))
				session.SetTask(simlat.Free())
				if _, err := session.QueryContext(ctx, query); err != nil { // warm boot state
					return nil, err
				}
				task := simlat.NewVirtualTask()
				session.SetTask(task)
				if _, err := session.QueryContext(ctx, query); err != nil {
					return nil, err
				}
				row := DOPRow{
					Arch: arch, Function: fn, DOP: dop,
					Elapsed: task.Elapsed(), Stats: session.LastCacheStats(),
				}
				if dop == 1 {
					seq = row.Elapsed
				}
				if seq > 0 {
					row.Speedup = float64(seq) / float64(row.Elapsed)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderDOP prints the E9 sweep.
func RenderDOP(rows []DOPRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-6s %4s %14s %8s %6s %6s %10s\n",
		"Function", "Arch", "DOP", "Elapsed", "Speedup", "Hits", "Miss", "Coalesced")
	b.WriteString(strings.Repeat("-", 80) + "\n")
	for _, r := range rows {
		arch := "WfMS"
		if r.Arch == fedfunc.ArchUDTF {
			arch = "UDTF"
		}
		fmt.Fprintf(&b, "%-18s %-6s %4d %14s %7.2fx %6d %6d %10d\n",
			r.Function, arch, r.DOP, fmtPaperMS(r.Elapsed), r.Speedup,
			r.Stats.Hits, r.Stats.Misses, r.Stats.Coalesced)
	}
	return b.String()
}

// ------------------------------------------------------------------ E13

// setDOP is the degree of parallelism of E13's parallel modes.
const setDOP = 4

// SetRow is one point of the set-orientation experiment E13: one (arch,
// driver size, execution mode) cell with its virtual elapsed time and the
// stack's wire-request and workflow-instance counters.
type SetRow struct {
	Arch    fedfunc.Arch
	N       int    // driver-table rows
	Mode    string // per-row, batched, parallel, batched+parallel
	Elapsed time.Duration
	RPCs    int64
	WfInst  int64 // workflow process instances (WfMS architecture only)
}

// SetOriented measures the set-orientation win (E13, extension): a lateral
// join of an N-row driver table of component names against the trivial
// federated function GibKompNr, under four execution modes — per-row and
// batched, each sequential and parallel. Batching amortizes the per-call
// federation overheads (UDTF entry, RPC round trip, workflow instance
// start) across chunks of batchSize rows, so the batched modes must show
// both fewer wire requests and less virtual elapsed time; the counters in
// the rows let callers assert exactly that. The session switches modes
// with SET BATCH_SIZE and SET PARALLELISM.
func (h *Harness) SetOriented(ctx context.Context, ns []int, batchSize int) ([]SetRow, error) {
	if batchSize < 2 {
		return nil, fmt.Errorf("benchharn: batch size %d out of range", batchSize)
	}
	modes := []struct {
		name  string
		batch int
		dop   int
	}{
		{"per-row", 0, 1},
		{"batched", batchSize, 1},
		{"parallel", 0, setDOP},
		{"batched+parallel", batchSize, setDOP},
	}
	var rows []SetRow
	for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		stack, err := fedfunc.NewStack(arch, fedfunc.Options{Profile: h.profile, Apps: h.apps})
		if err != nil {
			return nil, err
		}
		session := stack.Engine().NewSession()
		for _, n := range ns {
			if n < 1 || n > appsys.NumComponents {
				return nil, fmt.Errorf("benchharn: driver size %d out of range", n)
			}
			driver := fmt.Sprintf("set_driver_%d", n)
			session.MustExecContext(ctx, fmt.Sprintf("CREATE TABLE %s (KompName VARCHAR(30))", driver))
			for i := 0; i < n; i++ {
				// Distinct names, so no cache effect hides a wire request.
				session.MustExecContext(ctx, fmt.Sprintf("INSERT INTO %s VALUES ('%s')", driver, appsys.ComponentName(1+i)))
			}
			query := fmt.Sprintf(`SELECT COUNT(*) FROM %s d, TABLE (GibKompNr(d.KompName)) AS K`, driver)
			for _, m := range modes {
				session.MustExecContext(ctx, fmt.Sprintf("SET BATCH_SIZE %d", m.batch))
				session.MustExecContext(ctx, fmt.Sprintf("SET PARALLELISM %d", m.dop))
				session.SetTask(simlat.Free())
				if _, err := session.QueryContext(ctx, query); err != nil { // warm boot state
					return nil, err
				}
				stack.ResetCounters()
				task := simlat.NewVirtualTask()
				session.SetTask(task)
				if _, err := session.QueryContext(ctx, query); err != nil {
					return nil, err
				}
				rpcs, inst := stack.Counters()
				rows = append(rows, SetRow{
					Arch: arch, N: n, Mode: m.name,
					Elapsed: task.Elapsed(), RPCs: rpcs, WfInst: inst,
				})
			}
		}
	}
	return rows, nil
}

// RenderSetOriented prints the E13 grid.
func RenderSetOriented(rows []SetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %4s %-18s %14s %6s %8s\n", "Arch", "N", "Mode", "Elapsed", "RPCs", "WfInst")
	b.WriteString(strings.Repeat("-", 62) + "\n")
	for _, r := range rows {
		arch := "WfMS"
		if r.Arch == fedfunc.ArchUDTF {
			arch = "UDTF"
		}
		fmt.Fprintf(&b, "%-6s %4d %-18s %14s %6d %8d\n",
			arch, r.N, r.Mode, fmtPaperMS(r.Elapsed), r.RPCs, r.WfInst)
	}
	return b.String()
}

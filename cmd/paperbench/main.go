// Command paperbench regenerates every table and figure of the paper's
// evaluation on the simulated testbed:
//
//	paperbench -exp all          # everything (default)
//	paperbench -exp complexity   # Sect. 3 mapping-complexity table (E1)
//	paperbench -exp fig5         # Fig. 5 elapsed-time comparison (E2)
//	paperbench -exp fig6         # Fig. 6 time-portion breakdowns (E3)
//	paperbench -exp bootstate    # cold/warm/hot call times (E4)
//	paperbench -exp parallel     # parallel vs sequential (E5)
//	paperbench -exp loop         # do-until loop scaling (E6)
//	paperbench -exp controller   # controller ablation (E7)
//	paperbench -exp batch        # batch throughput scaling (E8, extension)
//	paperbench -exp dop          # intra-query parallelism sweep (E9, extension)
//	paperbench -exp spans        # Fig. 6 from live spans (E10, extension)
//	paperbench -exp faults       # fault-tolerance sweep + demos (E12, extension)
//	paperbench -exp stats        # statement-statistics warehouse accuracy (E14, extension)
//	paperbench -exp audit        # audit-journal accuracy + SLO burn rates (E15, extension)
//	paperbench -exp serve        # high-concurrency serving: sessions, admission, pipelining (E16, extension)
//
// -exp also takes a comma-separated list (-exp batch,serve); "all" anywhere
// in the list selects every experiment, and an unknown id is an error.
//
// With -json <path>, the numeric results of the experiments that ran are
// additionally written as a JSON record list (experiment, arch, function,
// step, dop, paper_ms), for machine consumption.
//
// Measurements run on the deterministic virtual clock, so the output is
// identical on every machine. paperbench only prints: TestAllIsByteIdentical
// pins the output, and the acceptance bars of the experiments are tests in
// internal/benchharn.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"fedwf/internal/benchharn"
	"fedwf/internal/fedfunc"
	"fedwf/internal/simlat"
)

// experiments are the -exp ids, in the order they print.
var experiments = []string{
	"complexity", "fig5", "fig6", "bootstate", "parallel", "loop", "controller",
	"batch", "dop", "spans", "faults", "stats", "audit", "serve",
}

// record is one numeric result in the -json output.
type record struct {
	Experiment string  `json:"experiment"`
	Arch       string  `json:"arch,omitempty"`
	Function   string  `json:"function,omitempty"`
	Step       string  `json:"step,omitempty"`
	DOP        int     `json:"dop,omitempty"`
	Calls      int     `json:"calls,omitempty"`
	PaperMS    float64 `json:"paper_ms"`
}

func paperMS(d time.Duration) float64 { return float64(d) / float64(simlat.PaperMS) }

func main() {
	exp := flag.String("exp", "all", "experiment ids (comma-separated): all, "+strings.Join(experiments, ", "))
	seed := flag.Uint64("seed", 42, "fault-injection seed for -exp faults and -exp audit (same seed, same faults)")
	bootFn := flag.String("bootfn", "GetSuppQual", "federated function for the boot-state experiment")
	dops := flag.String("dops", "1,2,4,8", "comma-separated degrees of parallelism for the E9 sweep")
	batchSize := flag.Int("batchsize", 8, "chunk size for the E13 set-orientation experiment")
	jsonPath := flag.String("json", "", "also write the numeric results as JSON to this path")
	traceOut := flag.String("trace-out", "", "with -exp spans: write each architecture's span tree as JSON into this directory (virtual-clock trees are deterministic, so the files diff cleanly across commits)")
	flag.Parse()

	run, err := parseExps(*exp)
	if err != nil {
		fail(err)
	}
	h, err := benchharn.New()
	if err != nil {
		fail(err)
	}
	var records []record

	if run["complexity"] {
		section("E1 - Mapping complexity (Sect. 3 table)")
		rows, err := h.Capabilities(context.Background())
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderCapabilities(rows))
	}
	if run["fig5"] {
		section("E2 - Elapsed-time comparison (Fig. 5)")
		rows, err := h.Fig5(context.Background())
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderFig5(rows))
		for _, r := range rows {
			if r.WfMS > 0 {
				records = append(records, record{Experiment: "E2", Arch: "wfms", Function: r.Function, PaperMS: paperMS(r.WfMS)})
			}
			if r.UDTF > 0 {
				records = append(records, record{Experiment: "E2", Arch: "udtf", Function: r.Function, PaperMS: paperMS(r.UDTF)})
			}
		}
	}
	if run["fig6"] {
		section("E3 - Time portions of GetNoSuppComp (Fig. 6)")
		wf, ud, err := h.Fig6(context.Background())
		if err != nil {
			fail(err)
		}
		fmt.Println(benchharn.RenderBreakdown(wf))
		fmt.Println(benchharn.RenderBreakdown(ud))
		for _, b := range []*benchharn.Breakdown{wf, ud} {
			for _, s := range b.Steps {
				records = append(records, record{Experiment: "E3", Arch: b.Arch, Function: "GetNoSuppComp", Step: s.Name, PaperMS: paperMS(s.Total)})
			}
		}
	}
	if run["bootstate"] {
		section("E4 - Boot states: initial / after-other-function / repeated")
		rows, err := h.BootStates(context.Background(), *bootFn)
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderBootStates(rows))
		for _, r := range rows {
			records = append(records,
				record{Experiment: "E4", Arch: r.Arch, Function: r.Function, Step: "cold", PaperMS: paperMS(r.Cold)},
				record{Experiment: "E4", Arch: r.Arch, Function: r.Function, Step: "warm", PaperMS: paperMS(r.Warm)},
				record{Experiment: "E4", Arch: r.Arch, Function: r.Function, Step: "hot", PaperMS: paperMS(r.Hot)})
		}
	}
	if run["parallel"] {
		section("E5 - Parallel (GetSuppQualRelia) vs sequential (GetSuppQual)")
		rows, err := h.ParallelVsSequential(context.Background())
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderParallel(rows))
		for _, r := range rows {
			records = append(records,
				record{Experiment: "E5", Arch: r.Arch, Function: "GetSuppQualRelia", PaperMS: paperMS(r.Parallel)},
				record{Experiment: "E5", Arch: r.Arch, Function: "GetSuppQual", PaperMS: paperMS(r.Sequential)})
		}
	}
	if run["loop"] {
		section("E6 - Do-until loop scaling (AllCompNames)")
		rows, err := h.LoopScaling(context.Background(), []int{1, 2, 4, 8, 16, 24})
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderLoop(rows))
		for _, r := range rows {
			records = append(records, record{Experiment: "E6", Function: "AllCompNames", Calls: r.Calls, PaperMS: paperMS(r.Elapsed)})
		}
	}
	if run["controller"] {
		section("E7 - Controller ablation")
		rows, with, without, err := h.ControllerAblation(context.Background())
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderAblation(rows, with, without))
		for _, r := range rows {
			records = append(records,
				record{Experiment: "E7", Arch: r.Arch, Function: "GetNoSuppComp", Step: "with-controller", PaperMS: paperMS(r.With)},
				record{Experiment: "E7", Arch: r.Arch, Function: "GetNoSuppComp", Step: "without-controller", PaperMS: paperMS(r.Without)})
		}
	}
	if run["batch"] {
		section("E8 - Batch throughput scaling (extension beyond the paper)")
		rows, err := h.BatchScaling(context.Background(), []int{1, 2, 4, 8, 16})
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderBatch(rows))
		for _, r := range rows {
			records = append(records,
				record{Experiment: "E8", Arch: "wfms", Calls: r.Calls, PaperMS: paperMS(r.WfMS)},
				record{Experiment: "E8", Arch: "udtf", Calls: r.Calls, PaperMS: paperMS(r.UDTF)})
		}

		section("E13 - Set-oriented federated calls (extension)")
		setRows, err := h.SetOriented(context.Background(), []int{8, 16, 24}, *batchSize)
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderSetOriented(setRows))
		for _, r := range setRows {
			records = append(records, record{Experiment: "E13", Arch: r.Arch.Label(), Function: "GibKompNr",
				Step: r.Mode, Calls: r.N, PaperMS: paperMS(r.Elapsed)})
		}
	}
	if run["dop"] {
		section("E9 - Intra-query parallelism: ParallelApply DOP sweep (extension)")
		list, err := parseDOPs(*dops)
		if err != nil {
			fail(err)
		}
		rows, err := h.ParallelLateral(context.Background(), list)
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderDOP(rows))
		for _, r := range rows {
			records = append(records, record{Experiment: "E9", Arch: r.Arch.Label(), Function: r.Function, DOP: r.DOP, PaperMS: paperMS(r.Elapsed)})
		}
	}
	if run["spans"] {
		section("E10 - Fig. 6 from live spans (extension)")
		results, err := h.Fig6FromSpans(context.Background())
		if err != nil {
			fail(err)
		}
		for _, r := range results {
			fmt.Println(benchharn.RenderSpanFig6(r))
			for _, s := range r.Trace.Steps {
				records = append(records, record{Experiment: "E10", Arch: r.Arch, Function: "GetNoSuppComp", Step: s.Name, PaperMS: paperMS(s.Total)})
			}
			if *traceOut != "" {
				if err := os.MkdirAll(*traceOut, 0o755); err != nil {
					fail(err)
				}
				data, err := json.MarshalIndent(r.Data, "", "  ")
				if err != nil {
					fail(err)
				}
				path := filepath.Join(*traceOut, fmt.Sprintf("E10_spans_%s.json", r.ArchLabel))
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					fail(err)
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	if run["faults"] {
		section("E12 - Fault tolerance: retries, deadlines, circuit breaking (extension)")
		report, err := h.Faults(context.Background(), *seed)
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderFaults(report))
		for _, r := range report.Rows {
			step := fmt.Sprintf("rate=%.0f%%", r.ErrorRate*100)
			records = append(records,
				record{Experiment: "E12", Function: r.Function, Step: step + "/unprotected", Calls: r.UnprotectedOK, PaperMS: r.UnprotectedRate() * 100},
				record{Experiment: "E12", Function: r.Function, Step: step + "/protected", Calls: r.ProtectedOK, PaperMS: r.ProtectedRate() * 100})
		}
	}
	if run["stats"] {
		section("E14 - Statement-statistics warehouse accuracy (extension)")
		for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
			rep, err := h.StatementStats(context.Background(), arch, 12)
			if err != nil {
				fail(err)
			}
			fmt.Println(benchharn.RenderStatementStats(rep))
			records = append(records,
				record{Experiment: "E14", Arch: rep.Arch, Function: "GetSuppQual", Step: "total", Calls: rep.Statements, PaperMS: paperMS(rep.Paper)},
				record{Experiment: "E14", Arch: rep.Arch, Function: "GetSuppQual", Step: "p99", Calls: rep.Statements, PaperMS: rep.P99MS})
		}
	}
	if run["audit"] {
		section("E15 - Audit journal accuracy and SLO burn rates (extension)")
		for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
			rep, err := h.AuditAccuracy(context.Background(), arch, 12)
			if err != nil {
				fail(err)
			}
			fmt.Println(benchharn.RenderAuditAccuracy(rep))
			records = append(records,
				record{Experiment: "E15", Arch: rep.Arch, Function: "GetSuppQual", Step: "total", Calls: rep.Statements, PaperMS: paperMS(rep.JnlPaper)})
		}
		burn, err := h.AuditBurn(context.Background(), *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(benchharn.RenderAuditBurn(burn))
		records = append(records,
			record{Experiment: "E15", Arch: "wfms", Function: "GetSuppQual", Step: "burn_5m", Calls: burn.Window("5m").Statements, PaperMS: burn.Window("5m").AvailBurn},
			record{Experiment: "E15", Arch: "wfms", Function: "GetSuppQual", Step: "burn_1h", Calls: burn.Window("1h").Statements, PaperMS: burn.Window("1h").AvailBurn})
	}
	if run["serve"] {
		section("E16 - High-concurrency serving: sessions, admission, pipelining (extension)")
		rep, err := h.ServingSweep(context.Background(), []int{100, 1000, 10000}, 4)
		if err != nil {
			fail(err)
		}
		fmt.Print(benchharn.RenderServing(rep))
		for _, r := range rep.Rows {
			records = append(records,
				record{Experiment: "E16", Function: benchharn.ServingFunction, Step: "p50", Calls: r.Sessions, PaperMS: paperMS(r.P50)},
				record{Experiment: "E16", Function: benchharn.ServingFunction, Step: "p99", Calls: r.Sessions, PaperMS: paperMS(r.P99)},
				record{Experiment: "E16", Function: benchharn.ServingFunction, Step: "throughput", Calls: r.Sessions, PaperMS: r.Throughput})
		}
		records = append(records,
			record{Experiment: "E16", Function: benchharn.ServingFunction, Step: "serialized_p99", Calls: rep.Serialized.Cfg.Sessions, PaperMS: paperMS(rep.Serialized.P99)},
			record{Experiment: "E16", Function: benchharn.ServingFunction, Step: "pipelined_p99", Calls: rep.Pipelined.Cfg.Sessions, PaperMS: paperMS(rep.Pipelined.P99)})
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("\npaperbench: wrote %d records to %s\n", len(records), *jsonPath)
	}
}

// parseExps returns the set of experiments an -exp list selects. "all"
// anywhere in the list selects every experiment; an id that names none,
// the empty one included, is an error.
func parseExps(list string) (map[string]bool, error) {
	selected := make(map[string]bool)
	for _, part := range strings.Split(strings.ToLower(list), ",") {
		switch id := strings.TrimSpace(part); {
		case id == "all":
			for _, e := range experiments {
				selected[e] = true
			}
		case slices.Contains(experiments, id):
			selected[id] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q in -exp %q (want all or a comma-separated list of: %s)",
				id, list, strings.Join(experiments, ", "))
		}
	}
	return selected, nil
}

func parseDOPs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -dops value %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func section(title string) {
	fmt.Println()
	fmt.Println("=== " + title + " ===")
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}

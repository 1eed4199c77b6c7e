package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// metricDef names one metric with its unit and the direction that is
// better. BENCHMARK.json repeats these with the regression bounds; the
// smoke test keeps the two lists equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the bounded metrics a user of the server sees, per workload;
// each is the median over the run's rounds. Two more are reported beside
// them because they are 0 on good runs and a bound relative to 0 means
// nothing: error_rate (as failed/attempted), and paperMS.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"cpu_ms_per_stmt", "ms", "lower"},
	{"allocs_per_stmt", "count", "lower"},
	{"alloc_bytes_per_stmt", "bytes", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// paperMS is the mean ExecResult.PaperMS(): the paper's cost model, which
// must not move when wall time does. It is 0 on the workloads that never
// leave the local engine, so it is not in BENCHMARK.json; -selfcheck holds
// it to paperMSBound all the same.
var paperMS = metricDef{"paper_ms_per_stmt", "ms", "lower"}

const paperMSBound = 0.01

// printedEndToEnd is what the report shows per workload: the bounded
// metrics and paperMS.
var printedEndToEnd = append(append([]metricDef(nil), endToEnd...), paperMS)

// perLayer are the traced run's metrics, <layer>.<what>.
var perLayer = []metricDef{
	{"rpc.self_us", "us", "lower"},
	{"rpc.allocs", "count", "lower"},
	{"rpc.echo_us", "us", "lower"},
	{"rpc.wire_bytes", "bytes", "lower"},
	{"fdbs.telemetry_self_us", "us", "lower"},
	{"fdbs.telemetry_allocs", "count", "lower"},
	{"fdbs.journal_events", "count", "lower"},
	{"fdbs.journal_dropped", "count", "lower"},
	{"fdbs.traces_retained", "count", "lower"},
	{"fdbs.paper_ms", "ms", "lower"},
	{"sqlparser.parse_us", "us", "lower"},
	{"sqlparser.allocs", "count", "lower"},
	{"plan.compile_us", "us", "lower"},
	{"plan.allocs", "count", "lower"},
	{"exec.self_us", "us", "lower"},
	{"exec.allocs", "count", "lower"},
	{"exec.rows_out", "count", "higher"},
	{"udtf.self_us", "us", "lower"},
	{"udtf.allocs", "count", "lower"},
	{"udtf.calls", "count", "lower"},
	{"controller.self_us", "us", "lower"},
	{"controller.allocs", "count", "lower"},
	{"wfms.self_us", "us", "lower"},
	{"wfms.allocs", "count", "lower"},
	{"wfms.instances", "count", "lower"},
	{"wfms.activities", "count", "lower"},
	{"appsys.self_us", "us", "lower"},
	{"appsys.allocs", "count", "lower"},
	{"appsys.rpcs", "count", "lower"},
	{"storage.lookup_us", "us", "lower"},
	{"storage.update_us", "us", "lower"},
	{"storage.scan_us", "us", "lower"},
	{"trace.client_exec_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.negative_self", "count", "lower"},
}

// value reads one end-to-end metric out of a round.
func (r roundResult) value(name string) float64 {
	switch name {
	case "setup_s":
		return r.SetupS
	case "throughput_per_s":
		return r.ThroughputPerS
	case "p50_ms":
		return r.P50MS
	case "p95_ms":
		return r.P95MS
	case "cpu_ms_per_stmt":
		return r.CPUMSPerStmt
	case "allocs_per_stmt":
		return r.AllocsPerStmt
	case "alloc_bytes_per_stmt":
		return r.AllocBytesPerStm
	case "live_heap_mb":
		return r.LiveHeapMB
	case "paper_ms_per_stmt":
		return r.PaperMSPerStmt
	}
	return math.NaN()
}

// summary is one end-to-end metric of one workload over the run's rounds.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Rounds []float64 `json:"rounds"`
}

// workloadReport is everything one run learned about one workload.
type workloadReport struct {
	Name      string             `json:"name"`
	Rounds    []roundResult      `json:"rounds,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	Samples   int                `json:"latency_samples"` // pooled over the rounds
	P99MS     float64            `json:"p99_ms_info"`     // information only: too unsteady to bound
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	ErrorRate float64            `json:"error_rate"`
	Ladder    *ladderResult      `json:"per_layer,omitempty"`
}

// summarizeRounds fills the medians and quartiles from the rounds.
func (w *workloadReport) summarizeRounds() {
	w.EndToEnd = make(map[string]summary, len(printedEndToEnd))
	for _, m := range printedEndToEnd {
		vals := make([]float64, len(w.Rounds))
		for i, r := range w.Rounds {
			vals[i] = r.value(m.Name)
		}
		q1, _, q3 := quartiles(vals)
		w.EndToEnd[m.Name] = summary{Median: median(vals), Q1: q1, Q3: q3, Rounds: vals}
	}
	var p99 []float64
	for _, r := range w.Rounds {
		w.Samples += r.Statements
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		p99 = append(p99, r.P99MS)
	}
	w.P99MS = median(p99)
	if w.Attempted > 0 {
		w.ErrorRate = float64(w.Failed) / float64(w.Attempted)
	}
}

// report is one run, as -json writes it.
type report struct {
	Seed       int64             `json:"seed"`
	Rounds     int               `json:"rounds"`
	WarmupS    float64           `json:"warmup_s"`
	WindowS    float64           `json:"window_s"`
	Sessions   int               `json:"sessions"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Workloads  []*workloadReport `json:"workloads"`
}

func newReport(seed int64) *report {
	return &report{Seed: seed, Sessions: sessions, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: vcsRevision()}
}

// vcsRevision is the commit the binary was built from, when the toolchain
// stamped one.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// print writes every metric by name with its unit.
func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "fedbench: seed %d, %d sessions, %d rounds x (%.1fs warm-up + %.1fs measured), nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		r.Seed, r.Sessions, r.Rounds, r.WarmupS, r.WindowS, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n== %s\n", w.Name)
		if w.EndToEnd != nil {
			fmt.Fprintf(out, "  %-24s %14s %-6s  [%s .. %s]\n", "end-to-end (median)", "value", "unit", "q1", "q3")
			for _, m := range printedEndToEnd {
				s := w.EndToEnd[m.Name]
				fmt.Fprintf(out, "  %-24s %14.4f %-6s  [%.4f .. %.4f]\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3)
			}
			fmt.Fprintf(out, "  %-24s %14.6f %-6s  (%d failed of %d attempted)\n", "error_rate", w.ErrorRate, "ratio", w.Failed, w.Attempted)
			fmt.Fprintf(out, "  %-24s %14.4f %-6s  (information only; %d latency samples)\n", "p99_ms", w.P99MS, "ms", w.Samples)
			for i, rd := range w.Rounds {
				if !rd.P95Supported {
					fmt.Fprintf(out, "  note: round %d has %d samples, fewer than %d beyond p95\n", i+1, rd.Statements, minBeyond)
				}
				if rd.FirstError != "" {
					fmt.Fprintf(out, "  round %d first error: %s\n", i+1, rd.FirstError)
				}
			}
		}
		if w.Ladder != nil {
			fmt.Fprintf(out, "  %-24s %14s %-6s  (%d statements traced)\n", "per-layer", "value", "unit", w.Ladder.Statements)
			for _, m := range perLayer {
				fmt.Fprintf(out, "  %-24s %14.3f %-6s\n", m.Name, w.Ladder.Metrics[m.Name], m.Unit)
			}
			fmt.Fprintf(out, "  Fig. 6 (median self time / median client.exec):")
			for _, layer := range treeLayers {
				fmt.Fprintf(out, " %s %.0f%%", layer, 100*w.Ladder.Shares[layer])
			}
			fmt.Fprintln(out)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceFile is what -trace-out writes: every span of the traced run, with
// the metrics computed from them.
type traceFile struct {
	Seed       int64                    `json:"seed"`
	Note       string                   `json:"note"`
	TreeLayers []string                 `json:"tree_layers"`
	Workloads  map[string][]span        `json:"workloads"`
	PerLayer   map[string]*ladderResult `json:"per_layer"`
}

func (r *report) writeTrace(path string) error {
	tf := traceFile{Seed: r.Seed, TreeLayers: treeLayers,
		Workloads: make(map[string][]span), PerLayer: make(map[string]*ladderResult),
		Note: "one trace_id per statement; the span named client.exec with parent_id 0 roots the statement's tree, " +
			"layer \"probe\" spans are side probes; self time = duration minus the direct children's durations"}
	for _, w := range r.Workloads {
		if w.Ladder != nil {
			tf.Workloads[w.Name] = w.Ladder.spans
			tf.PerLayer[w.Name] = w.Ladder
		}
	}
	return writeJSON(path, tf)
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

// boundedMetric is an end-to-end metric with the share of the parent's
// median by which it may get worse.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// driverLine is the result object the benchmark contract wants as the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult renders one workload's run for the driver: the end-to-end
// metrics of the timed rounds, or the per-layer metrics of the traced run.
func driverResult(w *workloadReport, traced bool) driverLine {
	d := driverLine{Metrics: make(map[string]driverValue)}
	if traced {
		d.Attempted = w.Ladder.Statements
		for _, m := range perLayer {
			d.Metrics[m.Name] = driverValue{w.Ladder.Metrics[m.Name], m.Unit}
		}
	} else {
		d.Attempted, d.Failed = w.Attempted, w.Failed
		for _, m := range endToEnd {
			d.Metrics[m.Name] = driverValue{w.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	d.Correct = d.Failed == 0
	return d
}

// selfcheck compares two sets of runs of the same binary the way the
// acceptance check does: per workload and end-to-end metric, the second
// set's median may not be worse than the first's by more than the bound,
// and (with four or more runs a set) neither set's interquartile spread
// may exceed it, setup_s excepted. It prints every comparison and returns
// the number of breaches.
func selfcheck(out io.Writer, bench *benchFile, a, b []*report) int {
	breaches := 0
	for wi, w := range a[0].Workloads {
		fmt.Fprintf(out, "\n== %s\n  %-22s %12s %12s %8s %8s %8s %6s\n", w.Name, "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
		bounded := bench.EndToEnd
		bounded = append(bounded[:len(bounded):len(bounded)], boundedMetric{paperMS, paperMSBound})
		for _, m := range bounded {
			va, vb := runMedians(a, wi, m.Name), runMedians(b, wi, m.Name)
			ma, mb := median(va), median(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if m.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(va), spread(vb)
			verdict := ""
			if worse > m.Bound {
				verdict = " BREACH(median)"
			}
			if len(va) >= 4 && m.Name != "setup_s" && math.Max(sa, sb) > m.Bound {
				verdict += " BREACH(spread)"
			}
			if verdict != "" {
				breaches++
			}
			fmt.Fprintf(out, "  %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		for _, set := range [][]*report{a, b} {
			for _, r := range set {
				if f := r.Workloads[wi].Failed; f > 0 {
					breaches++
					fmt.Fprintf(out, "  BREACH(error_rate): %d failed statements at seed %d\n", f, r.Seed)
				}
			}
		}
	}
	return breaches
}

// runMedians collects one metric's per-run value over a set of runs.
func runMedians(set []*report, workload int, metric string) []float64 {
	out := make([]float64, len(set))
	for i, r := range set {
		out[i] = r.Workloads[workload].EndToEnd[metric].Median
	}
	return out
}

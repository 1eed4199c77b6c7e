package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// TestQuickRunMatchesBenchmarkJSON runs every workload for a moment, timed
// and traced, and holds the output against the catalogue and the
// catalogue against BENCHMARK.json.
func TestQuickRunMatchesBenchmarkJSON(t *testing.T) {
	bench, err := readBenchFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	all := workloads(golden)
	if len(golden) != len(fedStmts) {
		t.Errorf("golden.json pins %d digests, the fed_* mix has %d statements", len(golden), len(fedStmts))
	}

	if len(bench.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, fedbench has %d", len(bench.Workloads), len(all))
	}
	for i, w := range all {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), fedbench has %q (%q)",
				i, bench.Workloads[i].Name, bench.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, fedbench has %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if bench.EndToEnd[i].metricDef != m {
			t.Errorf("BENCHMARK.json end-to-end metric %d is %+v, fedbench has %+v", i, bench.EndToEnd[i].metricDef, m)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, fedbench has %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bench.PerLayer[i] != m {
			t.Errorf("BENCHMARK.json per-layer metric %d is %+v, fedbench has %+v", i, bench.PerLayer[i], m)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := run(ctx, options{seed: 1, workloads: all, rounds: 1, warm: 100 * time.Millisecond,
		window: 300 * time.Millisecond, timed: true, ladder: true, ladderN: 10}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.failed(); n != 0 {
		t.Errorf("%d statements failed", n)
	}
	var out bytes.Buffer
	rep.print(&out)
	sections := strings.Split(out.String(), "\n== ")[1:]
	if len(sections) != len(all) {
		t.Fatalf("the report has %d workload sections, want %d", len(sections), len(all))
	}
	for i, w := range rep.Workloads {
		section := sections[i]
		if !strings.HasPrefix(section, w.Name+"\n") {
			t.Errorf("section %d is not %s", i, w.Name)
		}
		lines := strings.Split(section, "\n")
		names := append(append([]metricDef{}, printedEndToEnd...), perLayer...)
		names = append(names, metricDef{Name: "error_rate"})
		for _, m := range names {
			seen := 0
			for _, line := range lines {
				if f := strings.Fields(line); len(f) > 0 && f[0] == m.Name {
					seen++
				}
			}
			if seen != 1 {
				t.Errorf("%s: metric %s is printed %d times, want once", w.Name, m.Name, seen)
			}
		}
		for _, m := range endToEnd {
			if v := w.EndToEnd[m.Name].Median; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, m.Name, v)
			}
		}
		for _, m := range perLayer {
			if v, ok := w.Ladder.Metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, traced := range []bool{false, true} {
			line := driverResult(w, traced)
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(line.Metrics) != want || !line.Correct || line.Attempted < 1 {
				t.Errorf("%s: driver line traced=%v has %d metrics (want %d), correct=%v, attempted=%d",
					w.Name, traced, len(line.Metrics), want, line.Correct, line.Attempted)
			}
		}
	}

	// The predictions the issue makes of the baseline itself.
	byName := make(map[string]*workloadReport)
	for _, w := range rep.Workloads {
		byName[w.Name] = w
	}
	if got := byName["fed_udtf"].Ladder.Metrics["wfms.instances"]; got != 0 {
		t.Errorf("fed_udtf starts %v workflow instances per statement, want 0", got)
	}
	if got := byName["fed_wfms"].Ladder.Metrics["wfms.instances"]; got != 1 {
		t.Errorf("fed_wfms starts %v workflow instances per statement, want 1", got)
	}
	lb := byName["lateral_batch"].Ladder.Metrics
	if rows, inst := lb["exec.rows_out"], lb["wfms.instances"]; inst < rows/lateralChunk || inst > rows/lateralChunk+1 {
		t.Errorf("lateral_batch starts %v instances for %v rows per statement, want ceil(rows/%d)", inst, rows, lateralChunk)
	}
}

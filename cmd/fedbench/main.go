// Command fedbench is the repository's wall-clock benchmark: it boots the
// integration server in-process on loopback TCP, drives it through the
// client library with six seeded workloads, checks every result, and
// reports what a user of the server sees (throughput, latency, CPU,
// allocations, live heap) and, from a separate traced run, where one
// statement's time goes layer by layer — the paper's Fig. 5 and Fig. 6 for
// this middleware rather than for the paper's cost model.
//
//	go run ./cmd/fedbench -seed 1                     # everything, ~2.5 min
//	go run ./cmd/fedbench -seed 1 -json out.json      # plus the full report
//	go run ./cmd/fedbench -workload fed_wfms -trace 0 # one workload, timed rounds only
//	go run ./cmd/fedbench -selfcheck -runs 10         # two sets of runs against the bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics, as BENCHMARK.json's
// driver expects. See README.md in this directory for the catalogue.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"
)

// rounds is fixed: every time metric is the median over five fresh
// servers. A shorter run shortens the windows, never the rounds.
const rounds = 5

const warmup = 500 * time.Millisecond

// driverLadderStatements is the traced run's floor when the driver runs
// one workload for a fixed time: the time sets the count, the floor only
// keeps the medians meaningful on a very slow host.
const driverLadderStatements = 100

//go:embed testdata/golden.json
var goldenJSON []byte

// options is one run's shape.
type options struct {
	seed      int64
	workloads []*workload
	rounds    int
	warm      time.Duration
	window    time.Duration
	timed     bool          // run the timed rounds
	ladder    bool          // run the traced ladder
	ladderN   int           // statements the ladder replays at least
	budget    time.Duration // and how long it keeps replaying
}

// run measures the selected workloads: the timed rounds interleaved
// round-robin, so that slow drift of the host spreads over all workloads
// alike, each round on a fresh server so that only one server's heap is
// ever live; then the traced ladder, workload by workload.
func run(ctx context.Context, o options, progress io.Writer) (*report, error) {
	rep := newReport(o.seed)
	rep.Rounds, rep.WarmupS, rep.WindowS = o.rounds, o.warm.Seconds(), o.window.Seconds()
	for _, w := range o.workloads {
		rep.Workloads = append(rep.Workloads, &workloadReport{Name: w.name})
	}
	if o.timed {
		for r := 0; r < o.rounds; r++ {
			for i, w := range o.workloads {
				res, err := runRound(ctx, w, o.seed, o.warm, o.window)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(progress, "fedbench: %s round %d/%d: %d statements, %.0f/s, p50 %.3f ms\n",
					w.name, r+1, o.rounds, res.Statements, res.ThroughputPerS, res.P50MS)
				rep.Workloads[i].Rounds = append(rep.Workloads[i].Rounds, res)
			}
		}
		for _, w := range rep.Workloads {
			w.summarizeRounds()
		}
	}
	if o.ladder {
		for i, w := range o.workloads {
			res, err := runLadder(ctx, w, o.seed, o.ladderN, o.budget)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(progress, "fedbench: %s traced: %d statements\n", w.name, res.Statements)
			rep.Workloads[i].Ladder = res
		}
	}
	return rep, nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	seed := flag.Int64("seed", 1, "workload seed: worker i draws its statements from seed*1000+i")
	only := flag.String("workload", "", "run this workload alone and end with the driver's JSON result line")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload, split over the 5 rounds; with -trace 1, how long the ladder replays")
	trace := flag.Int("trace", 2, "0 = timed rounds only, 1 = traced ladder only, 2 = both")
	traceOut := flag.String("trace-out", "", "write the traced run's spans here (default trace.json for a full run, nothing with -workload)")
	jsonOut := flag.String("json", "", "write the full report (per-round values, medians, quartiles, environment) here")
	quick := flag.Bool("quick", false, "smoke run: 1 round x 0.3 s per workload, a ladder of 10 statements")
	check := flag.Bool("selfcheck", false, "run two sets of -runs runs back to back and compare them against the bounds in -benchmark")
	runs := flag.Int("runs", 1, "with -selfcheck: runs per set, at seeds seed, seed+1, ...")
	benchPath := flag.String("benchmark", "BENCHMARK.json", "with -selfcheck: the file whose bounds are checked")
	updateGolden := flag.Bool("update-golden", false, "recompute the fed_* result digests into cmd/fedbench/testdata/golden.json and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *updateGolden {
		return writeGolden(ctx, "cmd/fedbench/testdata/golden.json")
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	all := workloads(golden)
	o := options{seed: *seed, workloads: all, rounds: rounds, warm: warmup,
		window: time.Duration(*seconds / rounds * float64(time.Second)),
		timed:  *trace != 1, ladder: *trace != 0}
	if *only != "" {
		o.workloads = nil
		for _, w := range all {
			if w.name == *only {
				o.workloads = []*workload{w}
			}
		}
		if o.workloads == nil {
			return fmt.Errorf("unknown workload %q", *only)
		}
		if *trace == 2 {
			return errors.New("-workload needs -trace 0 or -trace 1")
		}
		o.ladderN, o.budget = driverLadderStatements, time.Duration(*seconds*float64(time.Second))
	} else if *traceOut == "" && o.ladder {
		*traceOut = "trace.json"
	}
	if *quick {
		o.rounds, o.warm, o.window, o.ladderN, o.budget = 1, 100*time.Millisecond, 300*time.Millisecond, 10, 0
	}
	if o.window <= 0 {
		return errors.New("-seconds must be positive")
	}

	if *check {
		return runSelfcheck(ctx, o, *runs, *benchPath)
	}
	rep, err := run(ctx, o, os.Stderr)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			return err
		}
	}
	if *traceOut != "" && o.ladder {
		if err := rep.writeTrace(*traceOut); err != nil {
			return err
		}
	}
	rep.print(os.Stdout)
	if *only != "" {
		line, err := json.Marshal(driverResult(rep.Workloads[0], o.ladder))
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if n := rep.failed(); n > 0 {
		return fmt.Errorf("error_rate > 0: %d statements failed, were refused or returned a wrong result", n)
	}
	return nil
}

// runSelfcheck runs two sets of timed runs back to back and holds them
// against the committed bounds.
func runSelfcheck(ctx context.Context, o options, runs int, benchPath string) error {
	if runs < 1 {
		return errors.New("-runs must be at least 1")
	}
	bench, err := readBenchFile(benchPath)
	if err != nil {
		return err
	}
	o.timed, o.ladder = true, false
	var sets [2][]*report
	for s := range sets {
		for i := 0; i < runs; i++ {
			ro := o
			ro.seed += int64(i)
			fmt.Fprintf(os.Stderr, "fedbench: selfcheck set %c run %d/%d (seed %d)\n", 'A'+s, i+1, runs, ro.seed)
			rep, err := run(ctx, ro, io.Discard)
			if err != nil {
				return err
			}
			sets[s] = append(sets[s], rep)
		}
	}
	if n := selfcheck(os.Stdout, bench, sets[0], sets[1]); n > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs outside their bounds", n)
	}
	fmt.Println("\nselfcheck: every workload x metric within its bound")
	return nil
}

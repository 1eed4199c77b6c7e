// Command fedsql is the interactive SQL client for a running fedserver:
//
//	fedsql -addr 127.0.0.1:4711
//	fedsql -addr 127.0.0.1:4711 -c "SELECT * FROM TABLE (BuySuppComp(4, 'washer')) AS R"
//	fedsql -addr 127.0.0.1:4711 -timing -c "EXPLAIN ANALYZE SELECT ..."
//
// In interactive mode, statements end with a semicolon; \q quits,
// \timing toggles per-statement timing (the server's simulated paper
// latency, the wall round-trip, and function-cache counters), \trace
// on|off requests distributed tracing for the following statements,
// \lasttrace pretty-prints the last traced statement's cross-process
// waterfall (client, rpc, fdbs, engine, UDTF, controller, WfMS and
// application-system spans stitched into one tree), and \stats [n] lists
// the server's top n statements by total simulated time from the
// fed_stat_statements warehouse (default 10). \audit [n] lists the newest
// n audit-journal events (default 20) from fed_audit_events, and
// \wf <instance> shows one workflow instance's per-activity history from
// fed_wf_activities (instance ids come from fed_wf_instances or \audit).
// The meta-commands send the named statements of package fdbs; every other
// fact the server keeps about itself — fed_slo, fed_traces, fed_spans —
// is an ordinary SELECT.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"fedwf/internal/fdbs"
	"fedwf/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4711", "fedserver address")
	command := flag.String("c", "", "execute one statement and exit")
	timing := flag.Bool("timing", false, "start with per-statement timing on (\\timing toggles it)")
	trace := flag.Bool("trace", false, "start with distributed tracing on (\\trace toggles it)")
	tenant := flag.String("tenant", "", "tenant the session is accounted under (server-side quotas and metrics key on it)")
	flag.Parse()

	var dialOpts []fdbs.ClientOption
	if *tenant != "" {
		dialOpts = append(dialOpts, fdbs.WithTenant(*tenant))
	}
	client, err := fdbs.DialClient(*addr, dialOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsql:", err)
		os.Exit(1)
	}
	defer client.Close()

	st := &state{timing: *timing, trace: *trace}

	if *command != "" {
		ok := execute(client, *command, st)
		if st.trace && st.lastTrace != "" {
			fmt.Print(st.lastTrace)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	fmt.Println("fedsql: connected to", *addr, `- terminate statements with ';', \q quits, \timing toggles timing, \trace traces, \lasttrace shows the last trace, \stats [n] shows the top statements by total time, \audit [n] the newest journal events, \wf <instance> one instance's activity history`)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "fedsql> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == `\q` || trimmed == "quit" || trimmed == "exit") {
			return
		}
		if buf.Len() == 0 && trimmed == `\timing` {
			st.timing = !st.timing
			if st.timing {
				fmt.Println("Timing is on.")
			} else {
				fmt.Println("Timing is off.")
			}
			continue
		}
		if buf.Len() == 0 && (trimmed == `\trace` || trimmed == `\trace on` || trimmed == `\trace off`) {
			switch trimmed {
			case `\trace on`:
				st.trace = true
			case `\trace off`:
				st.trace = false
			default:
				st.trace = !st.trace
			}
			if st.trace {
				fmt.Println("Tracing is on: the next statements request sampling and return their waterfall.")
			} else {
				fmt.Println("Tracing is off.")
			}
			continue
		}
		if buf.Len() == 0 && (trimmed == `\stats` || strings.HasPrefix(trimmed, `\stats `)) {
			n := 10
			if arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\stats`)); arg != "" {
				parsed, err := strconv.Atoi(arg)
				if err != nil || parsed <= 0 {
					fmt.Fprintf(os.Stderr, "error: \\stats takes a positive row count, got %q\n", arg)
					continue
				}
				n = parsed
			}
			execute(client, fdbs.TopStatementsQuery(n), st)
			continue
		}
		if buf.Len() == 0 && (trimmed == `\audit` || strings.HasPrefix(trimmed, `\audit `)) {
			n := 20
			if arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\audit`)); arg != "" {
				parsed, err := strconv.Atoi(arg)
				if err != nil || parsed <= 0 {
					fmt.Fprintf(os.Stderr, "error: \\audit takes a positive row count, got %q\n", arg)
					continue
				}
				n = parsed
			}
			execute(client, fdbs.RecentEventsQuery(n), st)
			continue
		}
		if buf.Len() == 0 && (trimmed == `\wf` || strings.HasPrefix(trimmed, `\wf `)) {
			inst := strings.TrimSpace(strings.TrimPrefix(trimmed, `\wf`))
			if inst == "" {
				fmt.Fprintln(os.Stderr, `error: \wf takes a workflow instance id (see fed_wf_instances or \audit)`)
				continue
			}
			execute(client, fdbs.InstanceActivitiesQuery(inst), st)
			continue
		}
		if buf.Len() == 0 && trimmed == `\lasttrace` {
			if st.lastTrace == "" {
				fmt.Println("No trace captured yet; turn tracing on with \trace and run a statement.")
			} else {
				fmt.Print(st.lastTrace)
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(strings.TrimSpace(buf.String()), ";") {
			stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			prompt = "fedsql> "
			if strings.TrimSpace(stmt) != "" {
				execute(client, stmt, st)
			}
		} else {
			prompt = "   ...> "
		}
	}
}

// state holds the REPL toggles and the last captured trace rendering.
type state struct {
	timing    bool
	trace     bool
	lastTrace string
}

func execute(client *fdbs.Client, sql string, st *state) bool {
	start := time.Now()
	var opts []fdbs.ExecOption
	if st.trace {
		opts = append(opts, fdbs.WithTrace())
	}
	res, err := client.Exec(context.Background(), sql, opts...)
	tab, meta := res.Table, res.Meta
	if st.trace {
		st.lastTrace = renderTrace(res.Trace, meta)
	}
	roundTrip := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		if st.trace && st.lastTrace != "" {
			fmt.Print(st.lastTrace)
		}
		return false
	}
	fmt.Print(tab.String())
	fmt.Printf("(%d rows)\n", tab.Len())
	if st.timing {
		fmt.Print(timingLine(meta, roundTrip))
	}
	if st.trace {
		if id := meta[obs.MetaTraceID]; id != "" {
			fmt.Printf("Trace %s captured (\\lasttrace shows the waterfall; the server keeps its spans: %s).\n", id, fdbs.TraceSpansQuery(id))
		}
	}
	return true
}

// renderTrace builds the \lasttrace output: a waterfall plus the indented
// span tree of the statement's cross-process trace.
func renderTrace(root *obs.Span, meta map[string]string) string {
	if root == nil {
		return ""
	}
	d := obs.SnapshotSpan(root)
	var b strings.Builder
	if id := meta[obs.MetaTraceID]; id != "" {
		fmt.Fprintf(&b, "trace %s\n", id)
	}
	b.WriteString(obs.Waterfall(d))
	b.WriteString(obs.RenderData(d))
	return b.String()
}

// timingLine renders the \timing footer from the server's per-statement
// metadata; absent metadata (an old server) falls back to the client-side
// round trip alone.
func timingLine(meta map[string]string, roundTrip time.Duration) string {
	rt := float64(roundTrip) / float64(time.Millisecond)
	if meta == nil {
		return fmt.Sprintf("Time: round-trip %.3f ms\n", rt)
	}
	line := fmt.Sprintf("Time: paper %s ms, server wall %s ms, round-trip %.3f ms",
		orDash(meta["paper_ms"]), orDash(meta["wall_ms"]), rt)
	if meta["cache_hits"] != "" || meta["cache_misses"] != "" || meta["cache_coalesced"] != "" {
		line += fmt.Sprintf(" (cache hits=%s misses=%s coalesced=%s)",
			orDash(meta["cache_hits"]), orDash(meta["cache_misses"]), orDash(meta["cache_coalesced"]))
	}
	return line + "\n"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

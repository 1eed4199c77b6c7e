// Command fedtop is a top-style live console for a running fedserver. It
// connects as an ordinary client over the client protocol and renders SLO
// burn rates, the top statements, recent workflow instances and recent
// audit-journal events as one refreshing view, each read from the server's
// fed_* relations with the named statements of package fdbs. Like any
// statement, fedtop's own reads are served, admitted and recorded.
//
//	fedtop -addr 127.0.0.1:4711
//	fedtop -addr 127.0.0.1:4711 -interval 1s -n 15
//	fedtop -addr 127.0.0.1:4711 -once
//
// Burn rates read as "error-budget consumption speed": 1.0 burns exactly
// the budget the availability objective allows; sustained values above
// 1.0 on the longer windows mean the SLO will be missed. Events the
// journal dropped are counted on /metrics as
// fedwf_audit_events_dropped_total.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fedwf/internal/fdbs"
	"fedwf/internal/types"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4711", "fedserver address")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	n := flag.Int("n", 10, "rows per section")
	once := flag.Bool("once", false, "render one frame and exit (no screen clearing)")
	flag.Parse()

	client, err := fdbs.DialClient(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedtop:", err)
		os.Exit(1)
	}
	defer client.Close()

	for {
		frame, err := render(client, *addr, *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedtop:", err)
			if *once {
				client.Close()
				os.Exit(1)
			}
		} else {
			if !*once {
				fmt.Print("\033[H\033[2J") // clear and home
			}
			fmt.Print(frame)
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// query runs one statement and returns its rows.
func query(client *fdbs.Client, sql string) ([]types.Row, error) {
	res, err := client.Exec(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return res.Table.Rows, nil
}

func render(client *fdbs.Client, addr string, n int) (string, error) {
	var rows [5][]types.Row
	for i, sql := range []string{fdbs.JournalHeadQuery, fdbs.SLOQuery, fdbs.TopStatementsQuery(n),
		fdbs.RecentInstancesQuery(n), fdbs.RecentEventsQuery(n)} {
		r, err := query(client, sql)
		if err != nil {
			return "", err
		}
		rows[i] = r
	}
	head, slo, stmts, inst, events := rows[0], rows[1], rows[2], rows[3], rows[4]

	var b strings.Builder
	var now float64
	if len(slo) > 0 {
		now = slo[0][8].Float()
	}
	fmt.Fprintf(&b, "fedtop — %s — vt %.1f paper-s — journal seq %d (live %d)\n\n",
		addr, now/1e3, head[0][0].Int(), head[0][1].Int())

	if len(slo) > 0 {
		fmt.Fprintf(&b, "SLO  availability %.4f, latency %.0f paper-ms\n", slo[0][6].Float(), slo[0][7].Float())
	}
	fmt.Fprintf(&b, "%-6s %10s %8s %6s %12s %12s\n", "window", "statements", "errors", "slow", "avail burn", "lat burn")
	for _, w := range slo {
		marker := ""
		if w[4].Float() > 1 || w[5].Float() > 1 {
			marker = "  << burning"
		}
		fmt.Fprintf(&b, "%-6s %10d %8d %6d %12.2f %12.2f%s\n",
			w[0].Str(), w[1].Int(), w[2].Int(), w[3].Int(), w[4].Float(), w[5].Float(), marker)
	}

	b.WriteString("\nTOP STATEMENTS (by total paper time)\n")
	fmt.Fprintf(&b, "%-18s %7s %6s %6s %10s %9s %9s  %s\n",
		"fingerprint", "calls", "rows", "errs", "total_ms", "mean_ms", "p99_ms", "query")
	for _, s := range stmts {
		fmt.Fprintf(&b, "%-18s %7d %6d %6d %10.1f %9.2f %9.2f  %s\n",
			s[0].Str(), s[1].Int(), s[2].Int(), s[3].Int(), s[4].Float(), s[5].Float(), s[6].Float(), clip(s[7].Str(), 48))
	}

	b.WriteString("\nWORKFLOW INSTANCES (newest first)\n")
	fmt.Fprintf(&b, "%-10s %-20s %6s %5s %5s %10s %9s  %s\n",
		"instance", "process", "batch", "acts", "rows", "start_vt", "dur_ms", "err")
	for _, e := range inst {
		fmt.Fprintf(&b, "%-10s %-20s %6d %5d %5d %10.1f %9.2f  %s\n",
			e[0].Str(), e[1].Str(), e[2].Int(), e[3].Int(), e[4].Int(), e[5].Float(), e[6].Float(), clip(e[7].Str(), 32))
	}

	b.WriteString("\nRECENT EVENTS (newest first)\n")
	fmt.Fprintf(&b, "%-6s %-12s %-20s %-10s %-12s %4s %5s %10s  %s\n",
		"seq", "kind", "func", "instance", "node/detail", "row", "rows", "start_vt", "err")
	for _, e := range events {
		nd := e[4].Str()
		if d := e[5].Str(); d != "" {
			nd += "/" + d
		}
		fmt.Fprintf(&b, "%-6d %-12s %-20s %-10s %-12s %4d %5d %10.1f  %s\n",
			e[0].Int(), e[1].Str(), clip(e[2].Str(), 20), e[3].Str(), clip(nd, 12), e[6].Int(), e[7].Int(),
			e[8].Float(), clip(e[10].Str(), 32))
	}
	return b.String(), nil
}

func clip(s string, n int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}

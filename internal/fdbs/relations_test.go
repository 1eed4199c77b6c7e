package fdbs

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
)

// TestSpanRelationMatchesStatement: a sampled statement's spans, read back
// through fed_spans over the client protocol, form one tree whose root
// lasted the statement's paper time, and fed_traces agrees on both counts.
func TestSpanRelationMatchesStatement(t *testing.T) {
	for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		t.Run(arch.Label(), func(t *testing.T) {
			srv, err := NewServer(Config{Arch: arch, Trace: collector.Policy{SampleRate: -1}})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client, err := DialClient(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			res, err := client.Exec(context.Background(), "SELECT * FROM TABLE (BuySuppComp(4, 'washer')) AS R", WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			id := res.Meta[obs.MetaTraceID]
			spans, err := client.Exec(context.Background(), TraceSpansQuery(id))
			if err != nil {
				t.Fatal(err)
			}
			rows := spans.Table.Rows
			if len(rows) < 2 {
				t.Fatalf("fed_spans of trace %s:\n%s", id, spans.Table)
			}
			paper, err := strconv.ParseFloat(res.Meta["paper_ns"], 64)
			if err != nil {
				t.Fatal(err)
			}
			if root := rows[0]; root[0].Int() != 0 || root[1].Int() != -1 || root[3].Str() != "fdbs.exec" ||
				root[5].Float() != paper/1e6 {
				t.Errorf("root row %v, want span 0 of fdbs.exec lasting the statement's %v paper ms", root, paper/1e6)
			}
			for i, r := range rows {
				if r[0].Int() != int64(i) {
					t.Fatalf("row %d is span %d: spans are numbered in preorder", i, r[0].Int())
				}
				if p := r[1].Int(); i > 0 && (p < 0 || p >= int64(i) || r[2].Int() != rows[p][2].Int()+1) {
					t.Errorf("span %d (%s): parent %d names no earlier span one level up", i, r[3].Str(), p)
				}
			}

			listed, err := client.Exec(context.Background(), "SELECT Paper_MS, Spans FROM fed_traces WHERE Trace = "+quote(id))
			if err != nil {
				t.Fatal(err)
			}
			if listed.Table.Len() != 1 || listed.Table.Rows[0][0].Float() != paper/1e6 || listed.Table.Rows[0][1].Int() != int64(len(rows)) {
				t.Errorf("fed_traces row:\n%s\nwant %v paper ms and %d spans", listed.Table, paper/1e6, len(rows))
			}
		})
	}
}

// TestRelationScansUnderConcurrentAppenders scans every fed_* relation
// while eight goroutines serve statements into the stores behind them.
// The -race build is the assertion; the books must also balance after.
func TestRelationScansUnderConcurrentAppenders(t *testing.T) {
	srv, err := NewServer(Config{Arch: fedfunc.ArchWfMS, Trace: collector.Policy{SampleRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perAppender = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				stmt := fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", (g+i)%9+1)
				if _, _, err := srv.ExecTracedContext(context.Background(), stmt, obs.TraceContext{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	names := srv.Engine().Catalog().Virtuals()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := srv.Session()
		for i := 0; i < 4; i++ {
			for _, name := range names {
				if _, err := s.QueryContext(context.Background(), "SELECT * FROM "+name); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}
	}()
	wg.Wait()

	tab, err := srv.Session().QueryContext(context.Background(), "SELECT COUNT(*) FROM fed_audit_events WHERE Kind = 'statement'")
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Rows[0][0].Int(); got != appenders*perAppender {
		t.Errorf("fed_audit_events holds %d statement events, want %d", got, appenders*perAppender)
	}
}

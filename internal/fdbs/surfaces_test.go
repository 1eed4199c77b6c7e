package fdbs

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/resil"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/surfaces.golden from this build")

const surfacesGolden = "testdata/surfaces.golden"

// TestServedSurfacesGolden pins everything the server says about itself
// after a fixed workload: every Prometheus series but the wall-time one,
// and every fed_* relation as a multiset. The workload
// runs under both architectures, one statement at a time over framed TCP
// with fixed trace ids: every catalog federated function on its sample
// arguments, one lateral batch, and seeded faults that retry, trip a
// breaker, shed, time out and answer a partial result. Wall-clock values
// and journal sequence numbers are masked, and rows are sorted, so the
// dump is the same at any GOMAXPROCS. Rewrite it with -update.
func TestServedSurfacesGolden(t *testing.T) {
	var b strings.Builder
	for _, arch := range []fedfunc.Arch{fedfunc.ArchWfMS, fedfunc.ArchUDTF} {
		fmt.Fprintf(&b, "######## arch %s\n", arch.Label())
		servedSurfaces(t, &b, arch)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(surfacesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfacesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		out := filepath.Join(t.TempDir(), "surfaces.got")
		_ = os.WriteFile(out, []byte(got), 0o644)
		t.Fatalf("served surfaces differ from %s (this build's dump: %s):\n%s", surfacesGolden, out, firstDiff(string(want), got))
	}
}

// firstDiff reports the first differing lines of two dumps.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}

// servedSurfaces runs the golden workload on a fresh server of arch and
// appends the server's surfaces to b.
func servedSurfaces(t *testing.T, b *strings.Builder, arch fedfunc.Arch) {
	t.Helper()
	inj := resil.NewInjector(42) // no plan yet: the first statements run clean
	srv, err := NewServer(Config{
		Arch:           arch,
		Faults:         inj,
		Retry:          resil.RetryPolicy{MaxAttempts: 3, BaseBackoff: 800 * simlat.PaperMS, Multiplier: 2},
		Breaker:        resil.BreakerPolicy{ConsecutiveFailures: 3, OpenFor: time.Hour},
		StmtTimeout:    2000 * simlat.PaperMS,
		PartialResults: true,
		Trace:          collector.Policy{SampleRate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.DialMux(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mc := c.(rpc.MetaCaller)

	n := 0
	exec := func(sql string) error {
		n++
		req := rpc.Request{Function: fnExec, Args: []types.Value{types.NewString(sql)},
			Trace: obs.TraceContext{TraceID: fmt.Sprintf("%016x", n), Sampled: true}}
		_, _, err := mc.CallMeta(context.Background(), nil, req)
		return err
	}
	for _, spec := range fedfunc.Specs() {
		for _, args := range spec.SampleArgs {
			lits := make([]string, len(args))
			for i, v := range args {
				lits[i] = v.String()
			}
			// A mapping the UDTF architecture cannot realise fails there,
			// and that failure is a surface too.
			_ = exec(fmt.Sprintf("SELECT * FROM TABLE (%s(%s)) AS R", spec.Name, strings.Join(lits, ", ")))
		}
	}

	setup := []string{"CREATE TABLE drv (SupplierNo INT)", "CREATE TABLE comps (Name VARCHAR(30))",
		"INSERT INTO comps VALUES ('washer'), ('bolt'), ('nut')"}
	for i := 0; i < 16; i++ {
		setup = append(setup, fmt.Sprintf("INSERT INTO drv VALUES (%d)", i%10+1))
	}
	for _, s := range setup {
		if err := exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	srv.Engine().SetParallelism(2)
	srv.Engine().SetBatchSize(8)
	if err := exec("SELECT d.SupplierNo, F.Qual, F.Relia FROM drv d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F"); err != nil {
		t.Fatalf("lateral batch: %v", err)
	}
	srv.Engine().SetParallelism(0)
	srv.Engine().SetBatchSize(0)

	// Seeded faults: transient errors and hangs everywhere, then a product
	// data system that always fails, whose open breaker sheds the optional
	// branch of the last statement into a partial result.
	for _, sys := range []string{appsys.StockKeeping, appsys.ProductData, appsys.Purchasing} {
		inj.Plan(sys, resil.FaultPlan{ErrorRate: 0.3, HangRate: 0.02})
	}
	for i := 0; i < 24; i++ {
		_ = exec(fmt.Sprintf("SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier%d')) AS Q", i%9+1))
	}
	inj.Plan(appsys.ProductData, resil.FaultPlan{ErrorRate: 1})
	for i := 0; i < 2; i++ {
		_ = exec("SELECT KompNr FROM TABLE (GibKompNr('washer')) AS K")
	}
	if err := exec("SELECT c.Name, k.KompNr FROM comps c LEFT JOIN TABLE (GibKompNr(c.Name)) AS k ON 1 = 1"); err != nil {
		t.Fatalf("partial statement: %v", err)
	}
	wh := warehouseBooks(srv)
	if wh.Retries == 0 || wh.Trips == 0 || wh.Sheds == 0 || wh.Timeouts == 0 || srv.Metrics().PartialResults.Value() == 0 {
		t.Fatalf("the workload must retry, trip, shed, time out and answer partially: %+v, partial %v",
			wh, srv.Metrics().PartialResults.Value())
	}

	dumpPrometheus(t, b, srv)
	dumpRelations(t, b, srv)

	// The fixed trace ids above are 16 hex digits; a statement the client
	// does not trace runs under a server-minted id of 32. After it, every
	// relation's values must already be of the types its schema declares.
	if _, _, err := mc.CallMeta(context.Background(), nil, rpc.Request{Function: fnExec,
		Args: []types.Value{types.NewString("SELECT Name FROM comps")}}); err != nil {
		t.Fatalf("untraced statement: %v", err)
	}
	conformRelations(t, srv)
}

// conformRelations fails the test for any fed_* row that types.ConformRow
// would change against the relation's own schema, and insists that the
// check saw a 32-digit trace id in fed_audit_events.
func conformRelations(t *testing.T, srv *Server) {
	t.Helper()
	s := srv.Session()
	minted := false
	for _, name := range srv.Engine().Catalog().Virtuals() {
		tab, err := s.QueryContext(context.Background(), "SELECT * FROM "+name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, row := range tab.Rows {
			got, err := types.ConformRow(row, tab.Schema)
			if err != nil {
				t.Fatalf("%s row %v: %v", name, row, err)
			}
			for i := range row {
				if got[i] != row[i] {
					t.Errorf("%s.%s = %v, but its declared type %s makes it %v",
						name, tab.Schema[i].Name, row[i], tab.Schema[i].Type, got[i])
				}
			}
			if name == "fed_audit_events" && len(row[tab.Schema.ColumnIndex("Trace")].Str()) == 32 {
				minted = true
			}
		}
	}
	if !minted {
		t.Error("no fed_audit_events row carries a 32-digit trace id; the conformance check saw none")
	}
}

// dumpPrometheus appends every sample line of /metrics, sorted, except the
// admission queue wait, which is wall time.
func dumpPrometheus(t *testing.T, b *strings.Builder, srv *Server) {
	t.Helper()
	var sb strings.Builder
	if err := srv.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		l := sc.Text()
		if l == "" || strings.HasPrefix(l, "#") || strings.HasPrefix(l, "fedwf_admission_queue_wait_ms") {
			continue
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	b.WriteString("==== /metrics\n")
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
}

// dumpRelations appends every fed_* relation as a multiset: its schema,
// then its rows sorted, with sequence and wall-time columns masked.
func dumpRelations(t *testing.T, b *strings.Builder, srv *Server) {
	t.Helper()
	s := srv.Session()
	for _, name := range srv.Engine().Catalog().Virtuals() {
		tab, err := s.QueryContext(context.Background(), "SELECT * FROM "+name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cols := make([]string, len(tab.Schema))
		masked := make([]bool, len(tab.Schema))
		for i, c := range tab.Schema {
			cols[i] = c.String()
			n := strings.ToLower(c.Name)
			masked[i] = n == "seq" || strings.Contains(n, "wall")
		}
		fmt.Fprintf(b, "==== %s (%s)\n", name, strings.Join(cols, ", "))
		rows := make([]string, len(tab.Rows))
		for r, row := range tab.Rows {
			vals := make([]string, len(row))
			for i, v := range row {
				if masked[i] {
					vals[i] = "<masked>"
				} else {
					vals[i] = v.String()
				}
			}
			rows[r] = strings.Join(vals, " | ")
		}
		sort.Strings(rows)
		for _, r := range rows {
			b.WriteString(r + "\n")
		}
	}
}

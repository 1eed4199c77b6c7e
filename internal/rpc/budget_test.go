package rpc_test

import (
	"context"
	"fmt"
	"testing"

	"fedwf/internal/fdbs"
	"fedwf/internal/types"
)

// The statement of fedbench's wide_result workload — 2 000 rows of two
// integers and a 16-byte string through fdbs.Client.Exec on loopback,
// shipped defaults, client and server in one process as the benchmark
// counts them — allocated 8 152 times when every result cell was boxed
// into a wireValue on the way out and again on the way in, four
// allocations a row. Straight from table to frame to arena-carved rows it
// sits near 240; the budget keeps a per-row allocation from coming back
// into the result path unnoticed.
func TestWideResultAllocationBudget(t *testing.T) {
	sc := fdbs.DefaultServerConfig()
	cfg, err := sc.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fdbs.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc.Apply(srv)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := fdbs.DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE wide (K INT, V INT, S VARCHAR(16))"); err != nil {
		t.Fatal(err)
	}
	tab, err := srv.Engine().Catalog().Table("wide")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	for i := 0; i < rows; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i*7919) % 1000), types.NewString(fmt.Sprintf("row-%012d", i))}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := c.Exec(ctx, "SELECT K, V, S FROM wide WHERE K >= 17")
		if err != nil || res.Table.Len() != rows-17 || res.Table.Rows[0][2].Str() != "row-000000000017" {
			t.Fatalf("wide_result statement: %v, %v", res, err)
		}
	})
	t.Logf("wide_result statement: %.0f allocations", allocs)
	if allocs >= 600 {
		t.Errorf("wide_result statement allocates %.0f times, budget 600", allocs)
	}
}

package rpc

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"fedwf/internal/types"
)

// wideTable is the shape of fedbench's wide_result reply: n rows of two
// integers and a 16-byte string.
func wideTable(n int) *types.Table {
	t := types.NewTable(types.Schema{
		{Name: "K", Type: types.Integer}, {Name: "V", Type: types.Integer}, {Name: "S", Type: types.VarCharN(16)}})
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i*7919) % 1000), types.NewString("row-" + strings.Repeat("0", 11) + string(rune('0'+i%10)))})
	}
	return t
}

// TestDecodedRowsDoNotAlias holds the arena to the rules its callers rely
// on without knowing it exists: rows are capped, neighbours (within a
// table and across the tables of one batch reply) survive an append, and
// nothing decoded points into the payload buffer.
func TestDecodedRowsDoNotAlias(t *testing.T) {
	want := &reply{table: wideTable(700), batch: []*types.Table{wideTable(3), wideTable(1), wideTable(5)}}
	p := payload(encodeFrameResponse(1, want))
	_, got, err := decodeFrameResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		p[i] = 0xff // the read buffer is gone; the reply must not notice
	}
	if !sameReply(got, want) {
		t.Fatal("decoded reply changed when its payload buffer was overwritten")
	}
	var all []types.Row
	for _, tab := range append([]*types.Table{got.table}, got.batch...) {
		all = append(all, tab.Rows...)
	}
	for i, row := range all {
		if cap(row) != len(row) {
			t.Fatalf("row %d has len %d, cap %d: an append would write into its neighbour", i, len(row), cap(row))
		}
	}
	for i := range all {
		grown := append(all[i], types.NewString("intruder"))
		grown[0] = types.NewInt(-1)
		all[i][0] = types.NewInt(int64(i) + 1e6) // the row's own cells are its own
	}
	for i, row := range all {
		if row[0].Int() != int64(i)+1e6 || row[2].Kind() != types.KindString || !strings.HasPrefix(row[2].Str(), "row-") {
			t.Fatalf("row %d damaged by writes to other rows: %s", i, row)
		}
	}
	// Request args and batch rows come from the same arena.
	frame, _ := encodeFrameRequest(1, sampleCall())
	_, c, err := decodeFrameRequest(payload(frame))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range append([][]types.Value{c.args}, c.batch...) {
		if cap(row) != len(row) {
			t.Fatalf("request row has len %d, cap %d", len(row), cap(row))
		}
	}
}

// TestArenaGrowth: text chunks start at the first string's own size and
// double to the cap, and long strings stand alone. (Rows come from a
// types.Slab, whose chunks grow the same way: types.TestSlabChunks.)
func TestArenaGrowth(t *testing.T) {
	var a arena
	if s := a.str([]byte("0123456789abcdef")); a.text.Cap() != 16 || s != "0123456789abcdef" {
		t.Errorf("first 16-byte string opened a %d-byte text chunk", a.text.Cap())
	}
	// Text chunks hold no pointers, so the allocator rounds the capped
	// request up to its 8 KB class and the Builder reports all of it.
	for i := 0; i < 5000; i++ {
		a.str([]byte("0123456789abcdef"))
		if a.text.Cap() > 8192 {
			t.Fatalf("text chunk of %d bytes exceeds the 8 KB class", a.text.Cap())
		}
	}
	if a.text.Cap() != 8192 {
		t.Errorf("text chunks stopped doubling at %d, want 8192", a.text.Cap())
	}
	used := a.text.Len()
	if long := a.str(bytes.Repeat([]byte("L"), arenaChunkBytes/4)); a.text.Len() != used || len(long) != arenaChunkBytes/4 {
		t.Error("a quarter-chunk string was carved from the shared chunk")
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSmallRepliesCostNoMore: the arenas exist for wide results, and the
// statements that dominate every other workload return one row. A reply's
// whole trip — encode, writeFrame, readFrame, decode — measured at the
// commit before this codec (boxing included) took 23 allocations and
// 1 032 bytes for either shape below.
func TestSmallRepliesCostNoMore(t *testing.T) {
	const parentAllocs, parentBytes = 23, 1032
	shapes := map[string]*types.Table{
		"one row, one string": {
			Schema: types.Schema{{Name: "Decision", Type: types.VarCharN(30)}},
			Rows:   []types.Row{{types.NewString("order placed")}}},
		"acknowledgement": {
			Schema: types.Schema{{Name: "Result", Type: types.VarChar}},
			Rows:   []types.Row{{types.NewString("3 rows updated")}}},
	}
	for name, tab := range shapes {
		rep := &reply{table: tab, meta: map[string]string{"rows": "1"}}
		var wire bytes.Buffer
		trip := func() {
			wire.Reset()
			if err := writeFrame(&wire, encodeFrameResponse(7, rep)); err != nil {
				t.Fatal(err)
			}
			p, err := readFrame(&wire)
			if err != nil {
				t.Fatal(err)
			}
			if _, got, err := decodeFrameResponse(p); err != nil || got.table.Rows[0][0].Str() != tab.Rows[0][0].Str() {
				t.Fatalf("%s: round trip failed: %v", name, err)
			}
		}
		allocs, size := testing.AllocsPerRun(200, trip), bytesPerRun(200, trip)
		t.Logf("%s: %.0f allocations, %.0f bytes (before: %d, %d)", name, allocs, size, parentAllocs, parentBytes)
		if allocs > parentAllocs || size > parentBytes {
			t.Errorf("%s: %.0f allocations, %.0f bytes; the boxing codec took %d, %d", name, allocs, size, parentAllocs, parentBytes)
		}
	}
}

package rpc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"fedwf/internal/obs"
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

// metaReply is a one-row reply carrying n metadata entries: the keys and
// values of a served statement first (fdbs's nine, a trace fragment among
// them from four entries on), then numbered ones, with empty, one-byte
// and 300-byte values mixed in.
func metaReply(n int) *reply {
	served := [][2]string{
		{"arch", "wfms"}, {"paper_ms", "239.400"}, {"paper_ns", "239400000"},
		{obs.MetaTraceFragment, "\x01\x00fragment\xff" + strings.Repeat("s", 300)},
		{"wall_ms", "0.153"}, {"cache_hits", "0"}, {"cache_misses", "1"},
		{obs.MetaTraceID, "0123456789abcdef0123456789abcdef"}, {"rows", "1"},
	}
	meta := make(map[string]string, n)
	for i := 0; i < n; i++ {
		if i < len(served) {
			meta[served[i][0]] = served[i][1]
			continue
		}
		meta[fmt.Sprintf("key_%02d", i)] = []string{"", "v", strings.Repeat(string(rune('a'+i%26)), 300)}[i%3]
	}
	if n == 0 {
		meta = nil
	}
	return &reply{
		table: &types.Table{Schema: types.Schema{{Name: "Result", Type: types.VarChar}},
			Rows: []types.Row{{types.NewString("1 rows affected")}}},
		meta: meta,
	}
}

// TestMetadataRoundTrip: replies with 0, 1, 9 and 40 metadata entries come
// back entry for entry, and what the decoder returns shares no bytes with
// the payload it read: overwriting the payload afterwards changes no key
// and no value.
func TestMetadataRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 9, 40} {
		want := metaReply(n)
		p := payload(encodeFrameResponse(5, want))
		_, got, err := decodeFrameResponse(p)
		if err != nil {
			t.Fatalf("%d entries: %v", n, err)
		}
		if !sameReply(got, want) {
			t.Fatalf("%d entries: round trip mismatch:\n got %v\nwant %v", n, got.meta, want.meta)
		}
		for i := range p {
			p[i] = 0xa5
		}
		if len(got.meta) != len(want.meta) {
			t.Fatalf("%d entries: %d after the payload was overwritten", n, len(got.meta))
		}
		for k, v := range want.meta {
			if got.meta[k] != v {
				t.Fatalf("%d entries: %q = %q after the payload was overwritten, want %q", n, k, got.meta[k], v)
			}
		}
		// The fragment is deleted once grafted, so it has bytes of its own:
		// no other key or value overlaps or abuts them, as the fragment's
		// own key would if they shared one string.
		frag, ok := got.meta[obs.MetaTraceFragment]
		if !ok {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(frag)))
		hi := lo + uintptr(len(frag))
		for k, v := range got.meta {
			for _, s := range []string{k, v} {
				at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				if s != "" && s != frag && at+uintptr(len(s)) >= lo && at <= hi {
					t.Fatalf("%d entries: %q shares the trace fragment's string", n, s)
				}
			}
		}
	}
}

// metaSink keeps the reference maps of TestMetadataDecodeAllocationBudget
// on the heap, as a decoded reply's map is.
var metaSink map[string]string

// TestMetadataDecodeAllocationBudget: decoding a reply's metadata costs the
// map it returns, one string that every key and value slices, and a trace
// fragment's own string. A string per key and per value — 4, 19 and 60
// allocations for 1, 9 and 40 entries, where this reads 3, 6 and 6 —
// would fail it.
func TestMetadataDecodeAllocationBudget(t *testing.T) {
	bare := payload(encodeFrameResponse(5, metaReply(0)))
	base := testing.AllocsPerRun(100, func() { decodeFrameResponse(bare) })
	for _, n := range []int{1, 9, 40} {
		want := metaReply(n)
		p := payload(encodeFrameResponse(5, want))
		got := testing.AllocsPerRun(100, func() { decodeFrameResponse(p) }) - base
		maps := testing.AllocsPerRun(100, func() {
			m := make(map[string]string, len(want.meta))
			for k, v := range want.meta {
				m[k] = v
			}
			metaSink = m
		})
		budget := maps + 1
		if _, ok := want.meta[obs.MetaTraceFragment]; ok {
			budget++
		}
		t.Logf("%d entries: %.0f allocations beyond an empty reply's, budget %.0f", n, got, budget)
		if got > budget {
			t.Errorf("decoding %d metadata entries allocates %.0f times, budget %.0f (the map, one string, a fragment's own)", n, got, budget)
		}
	}
}

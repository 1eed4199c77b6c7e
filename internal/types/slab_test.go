package types

import (
	"runtime"
	"testing"
	"unsafe"
)

func TestSlabChunks(t *testing.T) {
	var s Slab
	if r := s.Alloc(0); r == nil || len(r) != 0 {
		t.Errorf("Alloc(0) = %#v, want an empty non-nil row", r)
	}
	// Chunks hold 1, 2, 4, ... rows and never more than the byte cap.
	var sizes []int
	for i := 0; i < 1000; i++ {
		r := s.Alloc(3)
		if len(r) != 3 || cap(r) != 3 {
			t.Fatalf("Alloc(3): len %d cap %d", len(r), cap(r))
		}
		if s.off == 3 { // the first row of a new chunk
			sizes = append(sizes, 0)
		}
		sizes[len(sizes)-1]++
	}
	for c, got := range sizes[:len(sizes)-1] { // the last chunk is part-filled
		if want := min(1<<c, slabChunkValues/3); got != want {
			t.Errorf("chunk %d holds %d rows, want %d", c, got, want)
		}
	}
	if size := int(unsafe.Sizeof(Value{})); slabChunkValues*size > 8192-8 || (slabChunkValues+1)*size <= 8192-8 {
		t.Errorf("slabChunkValues = %d does not fill 8192-8 bytes", slabChunkValues)
	}
	// A row wider than a chunk still gets its cells, in a chunk of its own.
	if r := s.Alloc(slabChunkValues + 5); len(r) != slabChunkValues+5 {
		t.Errorf("wide row: len %d", len(r))
	}
	// Unalloc hands the same cells out again.
	a := s.Alloc(4)
	s.Unalloc(a)
	if b := s.Alloc(4); &a[0] != &b[0] {
		t.Error("Alloc after Unalloc did not reuse the cells")
	}
}

// Reserve carves a known number of cells from one chunk of exactly that
// size, and rows after it still double from one.
func TestSlabReserve(t *testing.T) {
	var s Slab
	s.Reserve(6)
	a, b, c := s.Alloc(2), s.Alloc(2), s.Alloc(2)
	next := func(r Row) unsafe.Pointer { return unsafe.Add(unsafe.Pointer(&r[0]), 2*unsafe.Sizeof(Value{})) }
	if unsafe.Pointer(&b[0]) != next(a) || unsafe.Pointer(&c[0]) != next(b) || cap(s.chunk) != 6 {
		t.Fatalf("three reserved rows of 2 do not share one chunk of 6 (cap %d)", cap(s.chunk))
	}
	s.Reserve(2) // no room left: a chunk of exactly 2
	if cap(s.chunk) != 2 {
		t.Errorf("Reserve(2) on a full chunk made %d cells", cap(s.chunk))
	}
	s.Reserve(1) // room left: nothing new
	if cap(s.chunk) != 2 {
		t.Errorf("Reserve(1) with room made a new chunk of %d", cap(s.chunk))
	}
	d := s.Alloc(2)
	if len(d) != 2 || cap(d) != 2 {
		t.Errorf("row after Reserve: len %d cap %d", len(d), cap(d))
	}
}

// A nil slab makes every row on its own and reserves nothing.
func TestNilSlab(t *testing.T) {
	var s *Slab
	s.Reserve(10)
	a, b := s.Alloc(2), s.Alloc(2)
	if len(a) != 2 || cap(a) != 2 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("rows of a nil slab: %d/%d and %d/%d", len(a), cap(a), len(b), cap(b))
	}
	if c := s.Concat(a, b); len(c) != 4 || cap(c) != 4 {
		t.Errorf("Concat on a nil slab: len %d cap %d", len(c), cap(c))
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// The first chunk is one row: a one-row result allocates what make did,
// with a slab and without one.
func TestSlabFirstRowAllocatesNoMore(t *testing.T) {
	var sink Row
	for n := 1; n <= 6; n++ {
		slab := bytesPerRun(200, func() { var s Slab; sink = s.Alloc(n) })
		none := bytesPerRun(200, func() { var s *Slab; sink = s.Alloc(n) })
		plain := bytesPerRun(200, func() { sink = make(Row, n) })
		if slab > plain || none > plain {
			t.Errorf("first Alloc(%d): %d bytes, %d without a slab; make allocates %d", n, slab, none, plain)
		}
	}
	_ = sink
}

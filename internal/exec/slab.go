package exec

import (
	"unsafe"

	"fedwf/internal/types"
)

// slabChunkValues caps one rowSlab chunk at 8192-8 bytes. The cap is in
// bytes, not rows, because the Go allocator rounds a request up to its size
// class and, from go 1.22, puts an 8-byte header in front of pointerful
// objects above 512 bytes: a chunk of exactly 8 KB (or a fixed row count
// that lands just above a class boundary) would be charged for the next
// class up, a few per cent of every wide result.
const slabChunkValues = (8192 - 8) / int(unsafe.Sizeof(types.Value{}))

// rowSlab hands an operator the rows it builds out of shared backing
// arrays, so that a sequential operator allocates once per chunk of rows
// instead of once per row. Three rules make that invisible to whoever
// receives the rows:
//
//   - every row has cap == len, so an append to one reallocates instead of
//     writing into its neighbour;
//   - cells handed out are never handed out again, and the operator drops
//     the slab (rowSlab{}) in Open, so rows returned earlier stay intact
//     when an Apply re-opens the operator and one execution never pins the
//     chunk of another;
//   - chunks double from exactly one row up to slabChunkValues, so a
//     one-row result allocates what make(types.Row, n) did and a retained
//     row keeps at most one chunk (8 KB) alive.
//
// A rowSlab belongs to one operator instance and, like the operator, must
// not be shared between goroutines.
type rowSlab struct {
	chunk []types.Value
	off   int // chunk[off:] is not handed out yet
	rows  int // rows in the last chunk; the next one doubles it
}

// alloc returns a row of n cells with cap n. The caller sets every cell:
// after an unalloc they may hold what the returned row held.
func (s *rowSlab) alloc(n int) types.Row {
	if n == 0 {
		return types.Row{}
	}
	if len(s.chunk)-s.off < n {
		s.rows = max(1, min(2*s.rows, slabChunkValues/n))
		s.chunk = make([]types.Value, s.rows*n)
		s.off = 0
	}
	row := s.chunk[s.off : s.off+n : s.off+n]
	s.off += n
	return row
}

// unalloc takes back the row the last alloc returned, which the caller has
// not passed on: a join candidate its predicate rejected. The next alloc of
// that width reuses the cells, so rejected candidates cost no slab space.
func (s *rowSlab) unalloc(row types.Row) { s.off -= len(row) }

// concat returns l followed by r: the row a join emits.
func (s *rowSlab) concat(l, r types.Row) types.Row {
	out := s.alloc(len(l) + len(r))
	copy(out[copy(out, l):], r)
	return out
}

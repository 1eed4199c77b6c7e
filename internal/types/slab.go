package types

import "unsafe"

// slabChunkValues caps one Slab chunk at 8192-8 bytes. The cap is in
// bytes, not rows, because the Go allocator rounds a request up to its size
// class and, from go 1.22, puts an 8-byte header in front of pointerful
// objects above 512 bytes: a chunk of exactly 8 KB (or a fixed row count
// that lands just above a class boundary) would be charged for the next
// class up, a few per cent of every wide result.
const slabChunkValues = (8192 - 8) / int(unsafe.Sizeof(Value{}))

// Slab hands out rows carved from shared backing arrays, so that whoever
// builds rows — an executor operator, an application system answering a
// batch, a workflow helper — allocates once per chunk of rows instead of
// once per row. Three rules make that invisible to whoever receives the
// rows:
//
//   - every row has cap == len, so an append to one reallocates instead of
//     writing into its neighbour;
//   - cells handed out are never handed out again (Unalloc takes back only
//     a row that was not passed on), and a slab lives for one operator
//     Open or one call, so rows returned earlier stay intact and one
//     execution never pins the chunk of another;
//   - chunks double from exactly one row up to slabChunkValues, so a
//     one-row result allocates what make(Row, n) did and a retained row
//     keeps at most one chunk (8 KB) alive; Reserve carves a batch whose
//     size is known from one chunk of exactly that size.
//
// A nil *Slab is no slab: Alloc makes each row on its own and Reserve does
// nothing. A per-row call passes nil rather than put a slab on the heap
// for a single answer.
//
// A Slab belongs to one operator instance or one call and must not be
// shared between goroutines.
type Slab struct {
	chunk []Value
	off   int // chunk[off:] is not handed out yet
	rows  int // rows in the last chunk; the next one doubles it
}

// Alloc returns a row of n cells with cap n. The caller sets every cell:
// after an Unalloc they may hold what the returned row held.
func (s *Slab) Alloc(n int) Row {
	if s == nil {
		return make(Row, n)
	}
	if n == 0 {
		return Row{}
	}
	if len(s.chunk)-s.off < n {
		s.rows = max(1, min(2*s.rows, slabChunkValues/n))
		s.chunk = make([]Value, s.rows*n)
		s.off = 0
	}
	row := s.chunk[s.off : s.off+n : s.off+n]
	s.off += n
	return row
}

// Reserve makes the next n cells come from one chunk, allocating exactly n
// when the current chunk has less room: a caller that knows how many cells
// a batch of rows takes pays one allocation of that size for them.
func (s *Slab) Reserve(n int) {
	if s != nil && len(s.chunk)-s.off < n {
		s.chunk, s.off = make([]Value, n), 0
	}
}

// Unalloc takes back the row the last Alloc returned, which the caller has
// not passed on: a join candidate its predicate rejected. The next Alloc of
// that width reuses the cells, so rejected candidates cost no slab space.
func (s *Slab) Unalloc(row Row) { s.off -= len(row) }

// Concat returns l followed by r: the row a join emits.
func (s *Slab) Concat(l, r Row) Row {
	out := s.Alloc(len(l) + len(r))
	copy(out[copy(out, l):], r)
	return out
}

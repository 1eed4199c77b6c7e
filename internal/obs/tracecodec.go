package obs

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The compact trace encoding: how the collector keeps a retained span tree,
// and how a served tree travels back to its caller (MetaTraceFragment).
// One tree is one byte slice, so a ring of retained traces holds no
// pointers for the garbage collector to trace, and it is several times
// smaller than the tree's JSON. Spans are written depth first, in Children
// order; every integer is a varint:
//
//	span := str(name) varint(start_ns) varint(elapsed_ns)
//	        uvarint(#attrs)    { str(key) str(value) }
//	        uvarint(#steps)    { str(name) varint(ns) }
//	        uvarint(#children) { span }
//	str  := uvarint(0) uvarint(len) bytes   a string not in the table
//	      | uvarint(i+1)                    the string in the table's slot i
//
// Writer and reader keep the same per-trace string table, so a repeated
// span name, attribute key or step label costs one byte.

// traceStrings is the string table's size, and maxTableStrings how full it
// gets: a lateral_batch tree of 220 spans repeats 43 distinct strings.
const (
	traceStrings    = 64
	maxTableStrings = traceStrings * 3 / 4
)

// strTable is the per-trace string table: a small fixed array, probed
// linearly from a hash of a string's length and three of its bytes, that a
// string not in it enters while the table is under three quarters full.
// Writer and reader enter the same strings in the same order, so a slot
// names the same string on both sides.
type strTable struct {
	n     int
	used  [traceStrings]bool
	slots [traceStrings]string
}

// find returns s's slot and true, or the free slot s would enter and false
// (-1 when the table is full).
func (t *strTable) find(s string) (int, bool) {
	h := uint32(len(s)) * 0x9e3779b1
	if len(s) > 0 {
		h = (h ^ uint32(s[0]) ^ uint32(s[len(s)/2])<<8 ^ uint32(s[len(s)-1])<<16) * 0x85ebca6b
	}
	for i := int(h >> 26); ; i = (i + 1) % traceStrings {
		if !t.used[i] {
			if t.n == maxTableStrings {
				return -1, false
			}
			return i, false
		}
		if t.slots[i] == s {
			return i, true
		}
	}
}

func (t *strTable) enter(i int, s string) {
	t.used[i], t.slots[i] = true, s
	t.n++
}

// EncodeTrace encodes the finished tree under root in the compact form and
// returns the bytes with the number of spans they hold. A tree whose
// encoding is over maxBytes (when positive) loses its deepest levels: the
// spans of the last level kept carry pruned=children instead of their
// children, and the deepest cut that fits is kept. The root survives even
// over the cap. Every cut is sized without writing; the one allocation is
// exactly as large as the encoding.
func EncodeTrace(root *Span, maxBytes int) ([]byte, int) {
	if root == nil {
		return nil, 0
	}
	w := traceWriter{cut: -1}
	w.span(root, 0)
	if maxBytes > 0 && w.n > maxBytes {
		// A cut tree encodes differently: size each cut, one level
		// shallower at a time, until one fits or only the root is left.
		for cut := w.levels - 2; cut >= 0; cut-- {
			w = traceWriter{cut: cut}
			w.span(root, 0)
			if w.n <= maxBytes {
				break
			}
		}
	}
	size, spans := w.n, w.spans
	w = traceWriter{cut: w.cut, b: make([]byte, 0, size)}
	w.span(root, 0)
	return w.b, spans
}

// traceWriter writes one encoded trace, or only counts its bytes while b is
// nil (a sizing pass).
type traceWriter struct {
	b      []byte
	n      int
	spans  int
	levels int // how many levels the pass reached
	cut    int // the level whose spans lose their children; -1 for none
	tab    strTable
}

func (w *traceWriter) u64(v uint64) {
	if w.b == nil {
		w.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *traceWriter) i64(v int64) { w.u64(uint64(v<<1) ^ uint64(v>>63)) } // zig-zag, as AppendVarint

func (w *traceWriter) str(s string) {
	i, found := w.tab.find(s)
	if found {
		w.u64(uint64(i + 1))
		return
	}
	w.u64(0)
	w.u64(uint64(len(s)))
	if w.b == nil {
		w.n += len(s)
	} else {
		w.b = append(w.b, s...)
	}
	if i >= 0 {
		w.tab.enter(i, s)
	}
}

// span writes the subtree under s, which sits at level (0 is the root),
// reading every span in place under its lock.
func (w *traceWriter) span(s *Span, level int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.spans++
	w.levels = max(w.levels, level+1)
	w.str(s.name)
	w.i64(int64(s.start))
	w.i64(int64(s.elapsedLocked()))
	cut := level == w.cut && len(s.children) > 0
	if cut {
		w.u64(uint64(len(s.attrs) + 1))
	} else {
		w.u64(uint64(len(s.attrs)))
	}
	for _, a := range s.attrs {
		w.str(a.Key)
		w.str(a.Value)
	}
	if cut {
		w.str("pruned")
		w.str("children")
	}
	w.u64(uint64(len(s.steps)))
	for _, st := range s.steps {
		w.str(st.Name)
		w.i64(int64(st.Total))
	}
	if cut {
		w.u64(0)
		return
	}
	s.sortChildrenLocked()
	w.u64(uint64(len(s.children)))
	for _, c := range s.children {
		w.span(c, level+1)
	}
}

// DecodeTrace rebuilds the tree EncodeTrace encoded, in SnapshotSpan's
// form. Every string of the result is a slice of one copy of b, so b may be
// reused. Malformed input is an error, never a panic; empty input is the
// nil tree.
func DecodeTrace(b []byte) (*SpanData, error) {
	if len(b) == 0 {
		return nil, nil
	}
	r := traceReader{b: b, text: string(b)}
	d := r.span()
	if r.err == nil && r.off != len(b) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	return d, nil
}

// traceReader reads varints from b and takes strings from text, b's one
// string copy.
type traceReader struct {
	b    []byte
	text string
	off  int
	err  error
	tab  strTable
}

func (r *traceReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("obs: malformed trace encoding at %s (offset %d)", what, r.off)
	}
}

func (r *traceReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *traceReader) i64(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and bounds it by the bytes remaining at
// per bytes an entry, so a corrupt length cannot drive a huge allocation.
func (r *traceReader) count(what string, per int) int {
	n := r.u64(what)
	if r.err == nil && n > uint64((len(r.b)-r.off)/per) {
		r.fail(what)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *traceReader) str(what string) string {
	i := r.u64(what)
	if r.err != nil {
		return ""
	}
	if i > 0 {
		if i > traceStrings || !r.tab.used[i-1] {
			r.fail(what)
			return ""
		}
		return r.tab.slots[i-1]
	}
	n := r.count(what, 1)
	s := r.text[r.off : r.off+n]
	r.off += n
	if slot, found := r.tab.find(s); !found && slot >= 0 {
		r.tab.enter(slot, s)
	}
	return s
}

// Encoded entry sizes at their smallest, for count.
const (
	minAttrBytes = 2 // two table references
	minStepBytes = 2 // a reference and a one-byte varint
	minSpanBytes = 6 // a reference, two varints and three counts
)

func (r *traceReader) span() *SpanData {
	d := &SpanData{}
	d.Name = r.str("span name")
	d.StartNS = r.i64("span start")
	d.ElapsedNS = r.i64("span elapsed")
	if n := r.count("attrs", minAttrBytes); n > 0 {
		d.Attrs = make([]Attr, n)
		for i := range d.Attrs {
			d.Attrs[i].Key = r.str("attr key")
			d.Attrs[i].Value = r.str("attr value")
		}
	}
	if n := r.count("steps", minStepBytes); n > 0 {
		d.Steps = make([]StepData, n)
		for i := range d.Steps {
			d.Steps[i].Name = r.str("step name")
			d.Steps[i].NS = r.i64("step ns")
		}
	}
	// Children are appended as they decode: a count is only a bound until
	// they do, and reserving it in full at every level would cost the square
	// of a deep input's length.
	for n := r.count("children", minSpanBytes); n > 0 && r.err == nil; n-- {
		d.Children = append(d.Children, r.span())
	}
	return d
}

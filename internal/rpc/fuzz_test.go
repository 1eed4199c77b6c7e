package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"fedwf/internal/resil"
)

// The fuzz targets hold the framed protocol to two invariants on
// adversarial input: never panic, and never allocate ahead of the bytes
// that actually arrived (a lying length header is a protocol error, not a
// memory bill). Valid inputs additionally must round-trip: decode of an
// encode is the identity, and re-encoding a successful decode yields a
// payload that decodes to the same message.

// FuzzVarint drives the rbuf scalar decoders over raw bytes and checks
// the codec's primitives re-encode to a decodable image.
func FuzzVarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(binary.AppendUvarint(nil, 1<<63))
	f.Add(binary.AppendVarint(nil, -42))
	seed := newFrame(0)
	seed.u64(300)
	seed.i64(-150)
	seed.str("supplier-\x00-binary")
	seed.f64(3.25)
	seed.boolv(true)
	f.Add(payload(seed.b))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := rbuf{b: data}
		u := r.u64("fuzz u64")
		i := r.i64("fuzz i64")
		s := r.str("fuzz str")
		fl := r.f64("fuzz f64")
		b := r.boolv("fuzz bool")
		if r.err != nil {
			// The sticky error must zero every later read.
			if r.u64("after error") != 0 || r.str("after error") != "" {
				t.Fatal("reads after a decode error must return zero values")
			}
			return
		}
		// Successful decode: re-encode and decode back to the same values.
		// The sizing pass must count exactly the bytes the encoding pass
		// then appends.
		var w wbuf
		for range 2 {
			w.u64(u)
			w.i64(i)
			w.str(s)
			w.f64(fl)
			w.boolv(b)
			if w.b == nil {
				w.b = make([]byte, 0, w.n)
			}
		}
		if len(w.b) != w.n {
			t.Fatalf("sizing pass counted %d bytes, encoding wrote %d", w.n, len(w.b))
		}
		r2 := rbuf{b: w.b}
		if g := r2.u64("re u64"); g != u {
			t.Fatalf("u64 round trip: %d != %d", g, u)
		}
		if g := r2.i64("re i64"); g != i {
			t.Fatalf("i64 round trip: %d != %d", g, i)
		}
		if g := r2.str("re str"); g != s {
			t.Fatalf("str round trip: %q != %q", g, s)
		}
		gf := r2.f64("re f64")
		if gf != fl && !(gf != gf && fl != fl) { // NaN re-encodes to NaN
			t.Fatalf("f64 round trip: %v != %v", gf, fl)
		}
		if g := r2.boolv("re bool"); g != b {
			t.Fatalf("bool round trip: %v != %v", g, b)
		}
		if r2.err != nil {
			t.Fatalf("re-encoded scalars failed to decode: %v", r2.err)
		}
	})
}

// decodeAllocFactor bounds what decoding may allocate per payload byte.
// The worst honest input is a row of NULL cells: one byte each on the
// wire, a 32-byte types.Value each in memory, in a chunk the arena may
// just have doubled — 64 bytes per byte — under a row-header slice sized
// by a count that one-byte rows back at 24 bytes each. 96 covers both at
// once (and the metadata map's pre-sized buckets, the other allocation a
// bare count drives); the boxing codec needed 56 for its []wireValue rows
// before fromWireTable copied all of them again. decodeAllocSlack covers
// the fixed structs of a message and one full arena chunk.
const (
	decodeAllocFactor = 96
	decodeAllocSlack  = 2048 + arenaChunkBytes
)

// checkDecodeAlloc fails when decoding data allocates more than the
// stated multiple of its length: no count in the payload — rows, cells,
// columns, batch entries, metadata entries, string lengths — may size an
// allocation the bytes behind it do not back.
func checkDecodeAlloc(t *testing.T, data []byte) {
	t.Helper()
	limit := float64(decodeAllocFactor*len(data) + decodeAllocSlack)
	for name, decode := range map[string]func(){
		"request":  func() { decodeFrameRequest(data) },
		"response": func() { decodeFrameResponse(data) },
	} {
		if got := bytesPerRun(1, decode); got > limit {
			t.Fatalf("decoding %d bytes as a %s allocated %.0f, limit %.0f", len(data), name, got, limit)
		}
	}
}

// frameSeeds is the FuzzFrameDecode corpus: one valid payload of every
// message type from the current encoders, plus two stubs, and responses
// with 1, 9 and 40 metadata entries.
func frameSeeds() [][]byte {
	request, _ := encodeFrameRequest(77, sampleCall())
	return [][]byte{
		payload(request),
		payload(encodeFrameResponse(9, sampleReply())),
		helloPayload("tenant-a"),
		payload(encodeHelloAck(12, 0, "")),
		payload(encodeHelloAck(0, 2, "admission rejected")),
		{frameRequest},
		{frameResponse, 0x80},
		payload(encodeFrameResponse(4, &reply{err: fmt.Errorf("shed: %w", resil.ErrAppSysUnavailable)})),
		payload(encodeFrameResponse(2, metaReply(1))),
		payload(encodeFrameResponse(3, metaReply(9))),
		payload(encodeFrameResponse(6, metaReply(40))),
	}
}

// TestDecodeAllocationBound holds the seed corpus, every truncation of it,
// and inputs built to lie — a row count, a cell count and a string length
// each claiming all the bytes that follow — to the allocation bound.
func TestDecodeAllocationBound(t *testing.T) {
	inputs := frameSeeds()
	for _, seed := range frameSeeds() {
		for n := 1; n < len(seed); n += 7 {
			inputs = append(inputs, seed[:n])
		}
	}
	filler := bytes.Repeat([]byte{tagNull}, 1<<16)
	lie := func(msgType byte, build func(w *wbuf)) {
		w := newFrame(0)
		w.byte1(msgType)
		build(&w)
		inputs = append(inputs, append(payload(w.b), filler...))
	}
	lie(frameRequest, func(w *wbuf) { // args: a cell count claiming the rest
		w.u64(1)
		w.str("s")
		w.str("f")
		w.u64(uint64(len(filler)))
	})
	lie(frameResponse, func(w *wbuf) { // a row count claiming the rest, then one-byte rows
		w.u64(1)
		w.byte1(classGeneric)
		w.str("")
		w.u64(0)
		w.u64(uint64(len(filler)))
	})
	lie(frameResponse, func(w *wbuf) { // one row whose cell count claims the rest
		w.u64(1)
		w.byte1(classGeneric)
		w.str("")
		w.u64(0)
		w.u64(1)
		w.u64(uint64(len(filler) - 8))
	})
	lie(frameResponse, func(w *wbuf) { // a column count claiming the rest
		w.u64(1)
		w.byte1(classGeneric)
		w.str("")
		w.u64(uint64(len(filler)))
	})
	lie(frameResponse, func(w *wbuf) { // a metadata count claiming the rest
		w.u64(1)
		w.byte1(classGeneric)
		w.str("")
		w.u64(0)
		w.u64(0)
		w.u64(uint64(len(filler)))
	})
	lie(frameResponse, func(w *wbuf) { // honest: rows of NULLs, every chunk doubling
		w.u64(1)
		w.byte1(classGeneric)
		w.str("")
		w.u64(0)
		w.u64(9)
		for i := 0; i < 9; i++ {
			w.u64(250)
			w.b = append(w.b, filler[:250]...)
		}
	})
	for _, in := range inputs {
		checkDecodeAlloc(t, in)
	}
}

// FuzzFrameDecode throws raw payloads at every frame decoder and checks
// that successful decodes re-encode to an equivalent message, within the
// allocation bound. The framing layer itself is exercised through
// readFrame with the fuzz input as the wire, so lying length headers hit
// the chunked allocation path.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAlloc(t, data)
		if id, c, err := decodeFrameRequest(data); err == nil {
			re, err := encodeFrameRequest(id, c)
			if err != nil {
				t.Fatal(err)
			}
			id2, c2, err2 := decodeFrameRequest(payload(re))
			if err2 != nil || id2 != id || !sameCall(c, c2) {
				t.Fatalf("request re-encode mismatch: %v\n got %+v\nwant %+v", err2, c2, c)
			}
		}
		if id, rep, err := decodeFrameResponse(data); err == nil {
			re := encodeFrameResponse(id, rep)
			id2, rep2, err2 := decodeFrameResponse(payload(re))
			if err2 != nil || id2 != id || !sameReply(rep, rep2) {
				t.Fatalf("response re-encode mismatch: %v\n got %+v\nwant %+v", err2, rep2, rep)
			}
		}
		if _, tenant, err := decodeHello(data); err == nil {
			v2, tenant2, err2 := decodeHello(helloPayload(tenant))
			if err2 != nil || v2 != muxProtoVersion || tenant2 != tenant {
				t.Fatalf("hello re-encode mismatch: %v", err2)
			}
		}
		if sid, class, msg, err := decodeHelloAck(data); err == nil {
			sid2, class2, msg2, err2 := decodeHelloAck(payload(encodeHelloAck(sid, class, msg)))
			if err2 != nil || sid2 != sid || class2 != class || msg2 != msg {
				t.Fatalf("hello-ack re-encode mismatch: %v", err2)
			}
		}

		// Frame the input and read it back: the only legal outcomes are the
		// original payload or a clean error, and a header longer than the
		// body must never allocate the announced size.
		var framed bytes.Buffer
		if err := writeFrame(&framed, append(make([]byte, frameHeaderLen), data...)); err == nil {
			got, err := readFrame(&framed)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("readFrame(writeFrame(p)) != p: %v", err)
			}
		}
		lying := []byte{0xff, 0xff, 0xff, 0xff}
		if _, err := readFrame(bytes.NewReader(append(lying, data...))); err == nil {
			t.Fatal("readFrame accepted a frame beyond the size limit")
		}
		truncated := binary.BigEndian.AppendUint32(nil, uint32(len(data)+1))
		truncated = append(truncated, data...)
		if _, err := readFrame(bytes.NewReader(truncated)); err != io.ErrUnexpectedEOF && err != io.EOF {
			t.Fatalf("truncated frame: want unexpected EOF, got %v", err)
		}
	})
}

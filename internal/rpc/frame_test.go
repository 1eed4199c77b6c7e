package rpc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/types"
)

// payload strips a frame's reserved length header: what readFrame hands a
// decoder on the far side.
func payload(frame []byte) []byte { return frame[frameHeaderLen:] }

// helloPayload is the hello frame's payload without the magic before it.
func helloPayload(tenant string) []byte { return payload(encodeHello(tenant)[len(muxMagic):]) }

// sampleCall exercises every field of the request shape: args of all five
// value kinds, trace context, deadline, and batch rows.
func sampleCall() *call {
	return &call{
		system:   "stock-keeping",
		function: "GetSuppQual",
		args: []types.Value{
			types.Null,
			types.NewBool(true),
			types.NewInt(-42), // negative: varint zig-zag
			types.NewFloat(3.25),
			types.NewString("supplier-\x00-binary"), // embedded NUL
		},
		trace:      obs.TraceContext{TraceID: "trace-1", SpanID: "span-9", Sampled: true},
		deadlineMS: 1500,
		batch: [][]types.Value{
			{types.NewInt(1), types.NewString("a")},
			{types.NewInt(2), types.Null},
		},
	}
}

func sampleReply() *reply {
	return &reply{
		table: &types.Table{
			Schema: types.Schema{{Name: "QUALITY", Type: types.Integer}, {Name: "NAME", Type: types.VarCharN(30)}},
			Rows: []types.Row{
				{types.NewInt(7), types.NewString("ACME")},
				{types.Null, types.NewBool(false)},
			},
		},
		meta: map[string]string{"server_ms": "239.4", "cache": "hit"},
		batch: []*types.Table{
			{Schema: types.Schema{{Name: "N", Type: types.Integer}}, Rows: []types.Row{{types.NewInt(1)}}},
			{},
		},
		batchErrs: []string{"", "row 2 failed"},
	}
}

// sameRows compares cell for cell, bit for bit (NaN equals itself), and
// treats nil and empty alike: the codec writes both the same way.
func sameRows[R ~[]types.Value](a, b []R) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !reflect.DeepEqual(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

func sameTable(a, b *types.Table) bool {
	if a == nil || b == nil {
		return (a == nil || len(a.Schema)+len(a.Rows) == 0) && (b == nil || len(b.Schema)+len(b.Rows) == 0)
	}
	if len(a.Schema) != len(b.Schema) {
		return false
	}
	for i := range a.Schema {
		if a.Schema[i] != b.Schema[i] {
			return false
		}
	}
	return sameRows(a.Rows, b.Rows)
}

func sameCall(a, b *call) bool {
	return a.system == b.system && a.function == b.function && a.trace == b.trace &&
		a.deadlineMS == b.deadlineMS && sameRows([][]types.Value{a.args}, [][]types.Value{b.args}) &&
		sameRows(a.batch, b.batch)
}

// sameReply compares replies as a client sees them: error text and
// taxonomy sentinel, tables, metadata, per-entry errors.
func sameReply(a, b *reply) bool {
	if (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err != nil && (a.err.Error() != b.err.Error() || classOf(a.err) != classOf(b.err)) {
		return false
	}
	if !sameTable(a.table, b.table) || len(a.meta) != len(b.meta) || len(a.batch) != len(b.batch) {
		return false
	}
	for k, v := range a.meta {
		if bv, ok := b.meta[k]; !ok || bv != v {
			return false
		}
	}
	for i := range a.batch {
		if !sameTable(a.batch[i], b.batch[i]) || entryErr(a, i) != entryErr(b, i) {
			return false
		}
	}
	return true
}

func entryErr(r *reply, i int) string {
	if i < len(r.batchErrs) {
		return r.batchErrs[i]
	}
	return ""
}

func TestFrameRequestRoundTrip(t *testing.T) {
	want := sampleCall()
	frame, err := encodeFrameRequest(77, want)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := decodeFrameRequest(payload(frame))
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 {
		t.Errorf("id = %d, want 77", id)
	}
	if !sameCall(got, want) {
		t.Errorf("request round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameResponseRoundTrip(t *testing.T) {
	want := sampleReply()
	id, got, err := decodeFrameResponse(payload(encodeFrameResponse(99, want)))
	if err != nil {
		t.Fatal(err)
	}
	if id != 99 {
		t.Errorf("id = %d, want 99", id)
	}
	if !sameReply(got, want) {
		t.Errorf("response round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// An error reply keeps its class across the wire.
	timeout := &reply{err: fmt.Errorf("deadline: %w", resil.ErrTimeout), meta: map[string]string{"k": "v"}}
	_, got, err = decodeFrameResponse(payload(encodeFrameResponse(3, timeout)))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.err, resil.ErrTimeout) || !sameReply(got, timeout) {
		t.Errorf("error reply round trip: got %+v", got)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	if got := encodeHello("acme"); string(got[:len(muxMagic)]) != muxMagic {
		t.Fatalf("connection opener does not start with the magic: %q", got)
	}
	version, tenant, err := decodeHello(helloPayload("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if version != muxProtoVersion || tenant != "acme" {
		t.Errorf("hello = (%d, %q), want (%d, %q)", version, tenant, muxProtoVersion, "acme")
	}
	// Empty tenant survives too: the server substitutes DefaultTenant.
	if _, tenant, err = decodeHello(helloPayload("")); err != nil || tenant != "" {
		t.Errorf("empty tenant = (%q, %v)", tenant, err)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	sid, class, errMsg, err := decodeHelloAck(payload(encodeHelloAck(12, classGeneric, "")))
	if err != nil {
		t.Fatal(err)
	}
	if sid != 12 || class != classGeneric || errMsg != "" {
		t.Errorf("ack = (%d, %d, %q)", sid, class, errMsg)
	}
	// A typed rejection (session quota) carries its class and message.
	sid, class, errMsg, err = decodeHelloAck(payload(encodeHelloAck(0, classUnavailable, "session quota exhausted")))
	if err != nil {
		t.Fatal(err)
	}
	if sid != 0 || class != classUnavailable || errMsg != "session quota exhausted" {
		t.Errorf("rejection ack = (%d, %d, %q)", sid, class, errMsg)
	}
}

func TestWrongFrameTypeRejected(t *testing.T) {
	request, _ := encodeFrameRequest(1, sampleCall())
	if _, _, err := decodeHello(payload(encodeHelloAck(1, classGeneric, ""))); err == nil {
		t.Error("decodeHello accepted a hello-ack payload")
	}
	if _, _, _, err := decodeHelloAck(helloPayload("t")); err == nil {
		t.Error("decodeHelloAck accepted a hello payload")
	}
	if _, _, err := decodeFrameRequest(payload(encodeFrameResponse(1, &reply{}))); err == nil {
		t.Error("decodeFrameRequest accepted a response payload")
	}
	if _, _, err := decodeFrameResponse(payload(request)); err == nil {
		t.Error("decodeFrameResponse accepted a request payload")
	}
}

// TestErrorClassRoundTrip proves the resil taxonomy survives the wire:
// classOf on the server maps a typed error to a class, errFromWire on the
// client rebuilds an error that still matches errors.Is.
func TestErrorClassRoundTrip(t *testing.T) {
	cases := []struct {
		err      error
		class    uint8
		sentinel error
	}{
		{fmt.Errorf("shed: %w", resil.ErrAppSysUnavailable), classUnavailable, resil.ErrAppSysUnavailable},
		{fmt.Errorf("deadline: %w", resil.ErrTimeout), classTimeout, resil.ErrTimeout},
		{fmt.Errorf("breaker: %w", resil.ErrCircuitOpen), classCircuitOpen, resil.ErrCircuitOpen},
	}
	for _, c := range cases {
		if got := classOf(c.err); got != c.class {
			t.Errorf("classOf(%v) = %d, want %d", c.err, got, c.class)
			continue
		}
		back := errFromWire(c.class, c.err.Error())
		if !errors.Is(back, c.sentinel) {
			t.Errorf("errFromWire(%d) lost the %v sentinel", c.class, c.sentinel)
		}
		if back.Error() != c.err.Error() {
			t.Errorf("errFromWire message = %q, want %q", back.Error(), c.err.Error())
		}
	}
	if classOf(nil) != classGeneric {
		t.Error("classOf(nil) != classGeneric")
	}
	if classOf(errors.New("plain")) != classGeneric {
		t.Error("classOf(plain) != classGeneric")
	}
	generic := errFromWire(classGeneric, "semantic failure")
	if errors.Is(generic, resil.ErrAppSysUnavailable) || errors.Is(generic, resil.ErrTimeout) {
		t.Error("generic wire error must not match a taxonomy sentinel")
	}
}

func TestTransportErrorMatching(t *testing.T) {
	cause := context.Canceled
	var err error = &transportError{"call cancelled", cause}
	if !errors.Is(err, ErrTransport) {
		t.Error("transportError does not match ErrTransport")
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("transportError does not unwrap to its cause")
	}
	if !strings.Contains(err.Error(), "call cancelled") {
		t.Errorf("transportError message = %q", err.Error())
	}
	// Server-reported errors are NOT transport errors: pools keep the
	// connection when errors.Is(err, ErrTransport) is false.
	if errors.Is(errFromWire(classUnavailable, "shed"), ErrTransport) {
		t.Error("a typed server error must not look like a transport failure")
	}
}

// TestTruncatedFramesFailCleanly feeds every prefix of valid payloads to
// the decoders: each must return an error, never panic or fabricate data.
func TestTruncatedFramesFailCleanly(t *testing.T) {
	reqFrame, _ := encodeFrameRequest(5, sampleCall())
	reqPayload := payload(reqFrame)
	for n := 0; n < len(reqPayload); n++ {
		if _, _, err := decodeFrameRequest(reqPayload[:n]); err == nil {
			t.Fatalf("decodeFrameRequest accepted a %d/%d-byte prefix", n, len(reqPayload))
		}
	}
	resPayload := payload(encodeFrameResponse(5, sampleReply()))
	for n := 0; n < len(resPayload); n++ {
		if _, _, err := decodeFrameResponse(resPayload[:n]); err == nil {
			t.Fatalf("decodeFrameResponse accepted a %d/%d-byte prefix", n, len(resPayload))
		}
	}
}

// TestCorruptCountBoundsAllocation: a frame declaring a huge collection
// length must fail instead of driving a multi-gigabyte allocation.
func TestCorruptCountBoundsAllocation(t *testing.T) {
	w := newFrame(0)
	w.byte1(frameRequest)
	w.u64(1)       // id
	w.str("sys")   // system
	w.str("fn")    // function
	w.u64(1 << 40) // args length: absurd
	if _, _, err := decodeFrameRequest(payload(w.b)); err == nil {
		t.Error("absurd collection count decoded without error")
	}
}

func TestReadWriteFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, append(make([]byte, frameHeaderLen), p...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame payload = %q, want %q", got, want)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var wrote bytes.Buffer
	if err := writeFrame(&wrote, make([]byte, frameHeaderLen+maxFrameBytes+1)); err == nil || wrote.Len() != 0 {
		t.Errorf("writeFrame accepted an oversized payload (err %v, %d bytes written)", err, wrote.Len())
	}
	// An incoming header declaring an oversized frame is rejected before
	// the payload is allocated or read.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&hdr); err == nil {
		t.Error("readFrame accepted an oversized length header")
	}
}

// ------------------------------------------------- byte-identity oracle

// refbuf is an independent second implementation of the frame format, kept
// the way types.referenceHash keeps the hash it replaced: it reads the same
// call and reply the codec does but shares no code with it — one pass,
// append-doubling, a cell's tag taken from its Kind. The codec must produce
// its bytes exactly, and both must hash to framesSHA256 — that identity is
// what lets peers built before and after a codec change interoperate
// without a protocol version bump.
type refbuf struct{ b []byte }

func (w *refbuf) u64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *refbuf) i64(v int64)  { w.b = binary.AppendVarint(w.b, v) }
func (w *refbuf) byte1(v byte) { w.b = append(w.b, v) }
func (w *refbuf) str(s string) { w.u64(uint64(len(s))); w.b = append(w.b, s...) }
func (w *refbuf) boolv(v bool) {
	if v {
		w.byte1(1)
	} else {
		w.byte1(0)
	}
}
func (w *refbuf) f64(v float64) { w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v)) }

func (w *refbuf) value(v types.Value) {
	switch v.Kind() {
	case types.KindBool:
		w.byte1(1)
		w.boolv(v.Bool())
	case types.KindInt:
		w.byte1(2)
		w.i64(v.Int())
	case types.KindFloat:
		w.byte1(3)
		w.f64(v.Float())
	case types.KindString:
		w.byte1(4)
		w.str(v.Str())
	default:
		w.byte1(0)
	}
}

func (w *refbuf) valueRow(row []types.Value) {
	w.u64(uint64(len(row)))
	for _, v := range row {
		w.value(v)
	}
}

func (w *refbuf) table(t *types.Table) {
	if t == nil {
		w.u64(0)
		w.u64(0)
		return
	}
	w.u64(uint64(len(t.Schema)))
	for _, c := range t.Schema {
		w.str(c.Name)
		w.byte1(uint8(c.Type.Base))
		w.i64(int64(c.Type.Length))
	}
	w.u64(uint64(len(t.Rows)))
	for _, r := range t.Rows {
		w.valueRow(r)
	}
}

func referenceEncodeRequest(id uint64, c *call) []byte {
	var w refbuf
	w.byte1(frameRequest)
	w.u64(id)
	w.str(c.system)
	w.str(c.function)
	w.valueRow(c.args)
	w.str(c.trace.TraceID)
	w.str(c.trace.SpanID)
	w.boolv(c.trace.Sampled)
	w.i64(c.deadlineMS)
	w.u64(uint64(len(c.batch)))
	for _, row := range c.batch {
		w.valueRow(row)
	}
	return w.b
}

func referenceEncodeResponse(id uint64, class uint8, rep *reply) []byte {
	var w refbuf
	w.byte1(frameResponse)
	w.u64(id)
	w.byte1(class)
	if rep.err != nil {
		w.str(rep.err.Error())
	} else {
		w.str("")
	}
	w.table(rep.table)
	w.u64(uint64(len(rep.meta)))
	for k, v := range rep.meta {
		w.str(k)
		w.str(v)
	}
	w.u64(uint64(len(rep.batch)))
	for i, t := range rep.batch {
		w.str(entryErr(rep, i))
		w.table(t)
	}
	return w.b
}

// edgeCells are the values a codec gets wrong first.
var edgeCells = []types.Value{
	types.Null, types.NewBool(true), types.NewBool(false),
	types.NewInt(0), types.NewInt(-1), types.NewInt(63), types.NewInt(64), types.NewInt(-65),
	types.NewInt(math.MinInt64), types.NewInt(math.MaxInt64),
	types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()),
	types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)), types.NewFloat(3.25),
	types.NewString(""), types.NewString("a"), types.NewString("Zürich-東京-🙂"),
	types.NewString("nul-\x00-inside"), types.NewString(strings.Repeat("x", 127)),
	types.NewString(strings.Repeat("y", 128)), types.NewString(strings.Repeat("z", 3000)),
}

func randomRow(rng *rand.Rand, n int) types.Row {
	row := make(types.Row, n)
	for i := range row {
		row[i] = edgeCells[rng.Intn(len(edgeCells))]
	}
	return row
}

// randomTable covers zero-column and zero-row tables as well as ragged
// ones (the codec carries a cell count per row, not per table).
func randomTable(rng *rand.Rand) *types.Table {
	t := &types.Table{}
	nc := rng.Intn(5)
	for i := 0; i < nc; i++ {
		t.Schema = append(t.Schema, types.Column{
			Name: []string{"", "K", "Näme", "A_LONG_COLUMN_NAME"}[rng.Intn(4)],
			Type: types.Type{Base: types.BaseType(rng.Intn(7)), Length: []int{0, 30, -1, 1 << 20}[rng.Intn(4)]},
		})
	}
	for nr := rng.Intn(7); nr > 0; nr-- {
		width := nc
		if rng.Intn(8) == 0 {
			width = rng.Intn(6)
		}
		t.Rows = append(t.Rows, randomRow(rng, width))
	}
	return t
}

// randomMeta has at most one entry: with two, map order would make the
// reference and the encoder disagree by chance.
func randomMeta(rng *rand.Rand) map[string]string {
	if rng.Intn(2) == 0 {
		return nil
	}
	return map[string]string{"paper_ms": []string{"", "239.400", strings.Repeat("m", 200)}[rng.Intn(3)]}
}

func randomReply(rng *rand.Rand) *reply {
	rep := &reply{meta: randomMeta(rng)}
	switch rng.Intn(4) {
	case 0: // error replies, one per class
		rep.err = []error{
			errors.New("semantic failure"),
			fmt.Errorf("shed: %w", resil.ErrAppSysUnavailable),
			fmt.Errorf("deadline: %w", resil.ErrTimeout),
			fmt.Errorf("breaker: %w", resil.ErrCircuitOpen),
		}[rng.Intn(4)]
	case 1: // batch replies, some entries failed
		for n := 1 + rng.Intn(8); n > 0; n-- {
			rep.batch = append(rep.batch, randomTable(rng))
			rep.batchErrs = append(rep.batchErrs, []string{"", "", "row failed: no such supplier"}[rng.Intn(3)])
		}
	default:
		rep.table = randomTable(rng)
	}
	return rep
}

func randomCall(rng *rand.Rand) *call {
	c := &call{
		system:     []string{"", "stock-keeping", "fdbs"}[rng.Intn(3)],
		function:   []string{"exec", "GetSuppQual"}[rng.Intn(2)],
		args:       randomRow(rng, rng.Intn(6)),
		deadlineMS: []int64{0, 1500, math.MaxInt64}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		c.trace = obs.TraceContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7", Sampled: rng.Intn(2) == 0}
	}
	if rng.Intn(3) == 0 {
		for n := 1 + rng.Intn(8); n > 0; n-- {
			c.batch = append(c.batch, randomRow(rng, rng.Intn(4)))
		}
	}
	return c
}

// framesSHA256 is the SHA-256 over the payloads TestFramesByteIdenticalToReference
// produces, in order: 2 000 seeded response and request frames (seed 16), the
// three hello frames and the hello-ack. It was taken at commit 0794e0c, while
// the reference encoder still read the gob wire structs, and holds the frame
// bytes to what peers built before the gob transport was retired expect.
const framesSHA256 = "0b57dd42fd43e68d4e6b36aa5cc4f43de473dee5580243f15c8f27a1ab854a39"

// TestFramesByteIdenticalToReference: every message type, seeded random
// contents, every request id width — the encoders write exactly the bytes
// the reference encoder writes, behind a header that says so, into a
// buffer sized exactly once.
func TestFramesByteIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ids := []uint64{0, 1, 127, 128, 1 << 32, math.MaxUint64}
	codecSum, refSum := sha256.New(), sha256.New()
	check := func(what string, frame, want []byte) {
		t.Helper()
		codecSum.Write(payload(frame))
		refSum.Write(want)
		if !bytes.Equal(payload(frame), want) {
			t.Fatalf("%s differs from the reference encoding:\n got %x\nwant %x", what, payload(frame), want)
		}
		if len(frame) != cap(frame) {
			t.Fatalf("%s: sizing pass reserved %d bytes, encoding used %d", what, cap(frame), len(frame))
		}
	}
	for i := 0; i < 2000; i++ {
		id := ids[rng.Intn(len(ids))]
		rep := randomReply(rng)
		check("response", encodeFrameResponse(id, rep), referenceEncodeResponse(id, classOf(rep.err), rep))
		c := randomCall(rng)
		frame, err := encodeFrameRequest(id, c)
		if err != nil {
			t.Fatal(err)
		}
		check("request", frame, referenceEncodeRequest(id, c))
	}
	// The handshake frames, against the parent's bytes spelled out.
	for _, tenant := range []string{"", "acme", strings.Repeat("t", 200)} {
		want := binary.AppendUvarint([]byte{frameHello, muxProtoVersion}, uint64(len(tenant)))
		want = append(want, tenant...)
		opener := encodeHello(tenant)
		codecSum.Write(opener[len(muxMagic)+frameHeaderLen:])
		refSum.Write(want)
		if !bytes.Equal(opener[len(muxMagic)+frameHeaderLen:], want) ||
			binary.BigEndian.Uint32(opener[len(muxMagic):]) != uint32(len(want)) {
			t.Errorf("hello for %q = %x", tenant, opener)
		}
	}
	ack := encodeHelloAck(300, classUnavailable, "quota")
	want := append([]byte{frameHelloAck, muxProtoVersion, 0xac, 0x02, classUnavailable, 5}, "quota"...)
	codecSum.Write(payload(ack))
	refSum.Write(want)
	if !bytes.Equal(payload(ack), want) {
		t.Errorf("hello-ack = %x, want %x", payload(ack), want)
	}
	if got := fmt.Sprintf("%x", codecSum.Sum(nil)); got != framesSHA256 {
		t.Errorf("the codec's frames hash to %s, want %s", got, framesSHA256)
	}
	if got := fmt.Sprintf("%x", refSum.Sum(nil)); got != framesSHA256 {
		t.Errorf("the reference encoder's frames hash to %s, want %s", got, framesSHA256)
	}
	// writeFrame seals the header over exactly the payload.
	var out bytes.Buffer
	if err := writeFrame(&out, ack); err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(out.Bytes()); int(got) != out.Len()-frameHeaderLen {
		t.Errorf("header says %d payload bytes, frame carries %d", got, out.Len()-frameHeaderLen)
	}
}

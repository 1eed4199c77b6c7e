// The framed binary protocol: the one wire format of the TCP transport. A
// connection opens with an 8-byte magic preamble, followed by
// length-prefixed frames:
//
//	[4-byte big-endian payload length][payload]
//
// The first payload byte is the message type (hello, hello-ack, request,
// response); the rest is a hand-rolled varint encoding of call and reply,
// written from and read into the engine's own types.Value rows. Requests carry a connection-unique id and the
// server answers them out of order, so one connection multiplexes many
// in-flight statements (pipelining). Responses additionally carry an error
// class so the resil taxonomy survives the process boundary: a shed
// admission still matches errors.Is(err, resil.ErrAppSysUnavailable) on
// the client side.
//
// The magic's first byte is zero, which no text protocol and no gob stream
// opens with: a peer speaking anything else is told apart by its first
// eight bytes and hung up on (see Server.serveConn).
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"

	"fedwf/internal/obs"
	"fedwf/internal/resil"
	"fedwf/internal/types"
)

const (
	// muxMagic opens every framed connection.
	muxMagic = "\x00FEDWFX1"
	// muxProtoVersion is the framed protocol revision sent in the hello.
	muxProtoVersion = 1
	// maxFrameBytes caps a single frame; larger frames are protocol errors.
	maxFrameBytes = 64 << 20
)

// Frame message types (first payload byte).
const (
	frameHello byte = iota + 1
	frameHelloAck
	frameRequest
	frameResponse
)

// Error classes carried on hello-acks and responses, so typed resil
// errors survive the wire. classGeneric covers everything else (semantic
// SQL errors, unknown functions, ...).
const (
	classGeneric uint8 = iota
	classUnavailable
	classTimeout
	classCircuitOpen
)

// classOf maps a server-side error to its wire class.
func classOf(err error) uint8 {
	switch {
	case err == nil:
		return classGeneric
	case errors.Is(err, resil.ErrTimeout):
		return classTimeout
	case errors.Is(err, resil.ErrCircuitOpen):
		return classCircuitOpen
	case errors.Is(err, resil.ErrAppSysUnavailable):
		return classUnavailable
	default:
		return classGeneric
	}
}

// remoteError is a server-reported failure re-typed on the client so the
// resil taxonomy keeps matching across the wire.
type remoteError struct {
	msg      string
	sentinel error
}

// Error implements error; the message is the server's verbatim text.
func (e *remoteError) Error() string { return e.msg }

// Unwrap exposes the taxonomy sentinel for errors.Is.
func (e *remoteError) Unwrap() error { return e.sentinel }

// errFromWire rebuilds a typed error from a wire class and message.
func errFromWire(class uint8, msg string) error {
	switch class {
	case classUnavailable:
		return &remoteError{msg, resil.ErrAppSysUnavailable}
	case classTimeout:
		return &remoteError{msg, resil.ErrTimeout}
	case classCircuitOpen:
		return &remoteError{msg, resil.ErrCircuitOpen}
	default:
		return errors.New(msg)
	}
}

// ErrTransport marks transport-level failures — send, receive, handshake,
// cancellation — as opposed to errors the server reported over a healthy
// connection, after which the connection may still be reused.
var ErrTransport = errors.New("rpc: transport failure")

// transportError wraps a transport failure with its operation.
type transportError struct {
	op  string
	err error
}

// Error implements error.
func (e *transportError) Error() string { return "rpc: " + e.op + ": " + e.err.Error() }

// Unwrap exposes the cause (e.g. context.Canceled).
func (e *transportError) Unwrap() error { return e.err }

// Is matches ErrTransport.
func (e *transportError) Is(target error) bool { return target == ErrTransport }

// ------------------------------------------------------------- frame I/O

// frameHeaderLen is the length prefix every encoder reserves at the front
// of its buffer, so a frame goes out in one Write without a copy.
const frameHeaderLen = 4

// errTooLarge refuses a message the sizing pass found over the frame
// limit. It is a plain error, not a transport failure: nothing was written
// and the connection stays healthy.
func errTooLarge(what string, n int) error {
	return fmt.Errorf("rpc: %s of %d bytes exceeds the %d MiB frame limit", what, n, maxFrameBytes>>20)
}

// writeFrame patches the payload length into the frame's reserved header
// and writes the frame. Callers serialize writes per connection.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - frameHeaderLen
	if n > maxFrameBytes {
		return errTooLarge("frame", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// readFrameChunk bounds how much readFrame allocates ahead of the bytes
// actually arriving: the length header is untrusted input, and a peer
// announcing a near-limit frame and then hanging up must not cost a 64 MB
// allocation per connection attempt.
const readFrameChunk = 64 << 10

// readFrame reads one length-prefixed frame, growing the buffer in bounded
// chunks as payload bytes actually arrive.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameBytes {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit %d", n, maxFrameBytes)
	}
	payload := make([]byte, 0, min(n, readFrameChunk))
	for len(payload) < n {
		grab := min(n-len(payload), readFrameChunk)
		start := len(payload)
		payload = append(payload, make([]byte, grab)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// ------------------------------------------------------------ the codec

// Cell tags, one per types.Kind; part of the wire format.
const (
	tagNull byte = iota
	tagBool
	tagInt
	tagFloat
	tagString
)

// wbuf builds a frame. The encoding is varints for integers,
// length-prefixed bytes for strings, one tag byte per value kind, written
// straight from types.Value cells. Every message is written twice by the
// same code: first with b nil, which only adds the payload size up in n,
// then into a buffer of exactly that size behind the reserved header — so
// the size is known before a byte is encoded and the buffer never grows.
type wbuf struct {
	b []byte // nil during the sizing pass
	n int    // payload bytes the sizing pass counted
}

// newFrame returns a buffer holding the reserved header with room for
// size payload bytes behind it.
func newFrame(size int) wbuf {
	return wbuf{b: make([]byte, frameHeaderLen, frameHeaderLen+size)}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (w *wbuf) u64(v uint64) {
	if w.b == nil {
		w.n += uvarintLen(v)
		return
	}
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *wbuf) i64(v int64) {
	if w.b == nil {
		w.n += uvarintLen(uint64(v<<1) ^ uint64(v>>63)) // zig-zag, as AppendVarint
		return
	}
	w.b = binary.AppendVarint(w.b, v)
}

func (w *wbuf) byte1(v byte) {
	if w.b == nil {
		w.n++
		return
	}
	w.b = append(w.b, v)
}

func (w *wbuf) str(s string) {
	w.u64(uint64(len(s)))
	if w.b == nil {
		w.n += len(s)
		return
	}
	w.b = append(w.b, s...)
}

func (w *wbuf) boolv(v bool) {
	if v {
		w.byte1(1)
	} else {
		w.byte1(0)
	}
}

func (w *wbuf) f64(v float64) {
	if w.b == nil {
		w.n += 8
		return
	}
	w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *wbuf) cell(v types.Value) {
	switch v.Kind() {
	case types.KindBool:
		w.byte1(tagBool)
		w.boolv(v.Bool())
	case types.KindInt:
		w.byte1(tagInt)
		w.i64(v.Int())
	case types.KindFloat:
		w.byte1(tagFloat)
		w.f64(v.Float())
	case types.KindString:
		w.byte1(tagString)
		w.str(v.Str())
	default:
		w.byte1(tagNull)
	}
}

func (w *wbuf) cells(row []types.Value) {
	w.u64(uint64(len(row)))
	for _, v := range row {
		w.cell(v)
	}
}

// table writes the column header once, then every row; nil is the empty
// table of error and batch replies.
func (w *wbuf) table(t *types.Table) {
	if t == nil {
		t = &types.Table{}
	}
	w.u64(uint64(len(t.Schema)))
	for _, c := range t.Schema {
		w.str(c.Name)
		w.byte1(byte(c.Type.Base))
		w.i64(int64(c.Type.Length))
	}
	w.u64(uint64(len(t.Rows)))
	for _, r := range t.Rows {
		w.cells(r)
	}
}

func (w *wbuf) meta(m map[string]string) {
	w.u64(uint64(len(m)))
	for k, v := range m {
		w.str(k)
		w.str(v)
	}
}

// arenaChunkBytes caps one text chunk at types.Slab's figure for cells:
// what the allocator's 8 KB class holds behind the header of a pointerful
// object.
const arenaChunkBytes = 8192 - 8

// arena carves the rows and strings of decoded tables out of shared
// chunks, so decoding allocates per chunk, not per row or per string: the
// rows from a types.Slab, the strings from text chunks of their own. Three
// rules keep that invisible to whoever receives the table:
//
//   - every row has cap == len, so an append to one reallocates instead of
//     writing into its neighbour; strings are immutable anyway;
//   - chunks start at exactly the first row's or first string's size and
//     double up to 8 KB, so a one-row reply allocates what it did without
//     the arena and a retained cell pins at most 8 KB;
//   - a chunk is only ever sized by a row or string whose bytes the payload
//     holds, or by doubling one such, so a lying count cannot allocate
//     ahead of the bytes behind it (see rbuf.count).
type arena struct {
	cells types.Slab
	text  strings.Builder // the current text chunk; String() aliases it
}

// str copies p into the text chunk and returns the copy. Strings of a
// quarter chunk or more get their own allocation: they would waste the
// tail of a chunk, and nothing small should pin them.
func (a *arena) str(p []byte) string {
	switch {
	case len(p) == 0:
		return ""
	case len(p) >= arenaChunkBytes/4:
		return string(p)
	case a.text.Cap()-a.text.Len() < len(p):
		size := max(len(p), min(2*a.text.Cap(), arenaChunkBytes))
		a.text = strings.Builder{}
		a.text.Grow(size)
	}
	start := a.text.Len()
	a.text.Write(p)
	return a.text.String()[start:]
}

// rbuf consumes a frame payload; the first decode error sticks and turns
// every further read into a no-op returning zero values. Table data lands
// in the arena; metadata gets one string of its own and every other
// string is its own allocation, because callers keep errors and metadata
// apart from (and longer than) the rows.
type rbuf struct {
	b   []byte
	off int
	err error
	arena
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("rpc: truncated or malformed frame at %s (offset %d)", what, r.off)
	}
}

func (r *rbuf) u64(what string) uint64 {
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

func (r *rbuf) i64(what string) int64 {
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

func (r *rbuf) byte1(what string) byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// raw reads length-prefixed bytes; the result aliases the payload.
func (r *rbuf) raw(what string) []byte {
	n := r.count(what)
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rbuf) str(what string) string { return string(r.raw(what)) }

func (r *rbuf) boolv(what string) bool { return r.byte1(what) != 0 }

func (r *rbuf) f64(what string) float64 {
	if r.err != nil || len(r.b)-r.off < 8 {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// count reads a collection length and bounds it by the bytes remaining,
// so a corrupt length cannot drive a huge allocation.
func (r *rbuf) count(what string) int {
	n := r.u64(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *rbuf) cell(what string) types.Value {
	switch r.byte1(what) {
	case tagNull:
	case tagBool:
		return types.NewBool(r.boolv(what))
	case tagInt:
		return types.NewInt(r.i64(what))
	case tagFloat:
		return types.NewFloat(r.f64(what))
	case tagString:
		return types.NewString(r.arena.str(r.raw(what)))
	default:
		r.fail(what)
	}
	return types.Null
}

func (r *rbuf) cells(what string) types.Row {
	row := r.arena.cells.Alloc(r.count(what))
	for i := 0; i < len(row) && r.err == nil; i++ {
		row[i] = r.cell(what)
	}
	return row
}

func (r *rbuf) table(what string) *types.Table {
	t := &types.Table{}
	if nc := r.count(what); nc > 0 {
		t.Schema = make(types.Schema, 0, nc)
		for i := 0; i < nc && r.err == nil; i++ {
			var c types.Column
			c.Name = r.arena.str(r.raw(what))
			c.Type.Base = types.BaseType(r.byte1(what))
			c.Type.Length = int(r.i64(what))
			t.Schema = append(t.Schema, c)
		}
	}
	if nr := r.count(what); nr > 0 {
		t.Rows = make([]types.Row, 0, nr)
		for i := 0; i < nr && r.err == nil; i++ {
			t.Rows = append(t.Rows, r.cells(what))
		}
	}
	return t
}

// meta decodes the metadata section into one string that every key and
// value slices: a first pass sizes it, a second copies and maps. A trace
// fragment gets a string of its own, so the map never pins it once the
// fragment is grafted and deleted; table data never shares this string.
func (r *rbuf) meta(what string) map[string]string {
	n := r.count(what)
	if n == 0 {
		return nil
	}
	start, size := r.off, 0
	for i := 0; i < n && r.err == nil; i++ {
		k, v := r.raw(what), r.raw(what)
		size += len(k)
		if string(k) != obs.MetaTraceFragment {
			size += len(v)
		}
	}
	if r.err != nil {
		return nil
	}
	r.off = start
	var text strings.Builder
	text.Grow(size)
	slice := func(p []byte) string {
		at := text.Len()
		text.Write(p)
		return text.String()[at:]
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, v := slice(r.raw(what)), r.raw(what)
		if k == obs.MetaTraceFragment {
			m[k] = string(v)
		} else {
			m[k] = slice(v)
		}
	}
	return m
}

// --------------------------------------------------------- the messages

// encodeHello builds what opens a framed connection, ready to write: the
// magic preamble and the sealed hello frame (protocol version and tenant)
// in one buffer, so the negotiation is one segment.
func encodeHello(tenant string) []byte {
	w := wbuf{b: make([]byte, len(muxMagic)+frameHeaderLen, len(muxMagic)+frameHeaderLen+16+len(tenant))}
	copy(w.b, muxMagic)
	w.byte1(frameHello)
	w.u64(muxProtoVersion)
	w.str(tenant)
	binary.BigEndian.PutUint32(w.b[len(muxMagic):], uint32(len(w.b)-len(muxMagic)-frameHeaderLen))
	return w.b
}

// decodeHello parses a hello payload.
func decodeHello(p []byte) (version uint64, tenant string, err error) {
	r := rbuf{b: p}
	if t := r.byte1("hello type"); t != frameHello && r.err == nil {
		return 0, "", fmt.Errorf("rpc: expected hello frame, got type %d", t)
	}
	version = r.u64("hello version")
	tenant = r.str("hello tenant")
	return version, tenant, r.err
}

// encodeHelloAck builds the server's handshake reply frame. A non-empty
// errMsg rejects the session; class types the rejection.
func encodeHelloAck(sessionID uint64, class uint8, errMsg string) []byte {
	w := newFrame(32 + len(errMsg))
	w.byte1(frameHelloAck)
	w.u64(muxProtoVersion)
	w.u64(sessionID)
	w.byte1(class)
	w.str(errMsg)
	return w.b
}

// decodeHelloAck parses a hello-ack payload.
func decodeHelloAck(p []byte) (sessionID uint64, class uint8, errMsg string, err error) {
	r := rbuf{b: p}
	if t := r.byte1("ack type"); t != frameHelloAck && r.err == nil {
		return 0, 0, "", fmt.Errorf("rpc: expected hello-ack frame, got type %d", t)
	}
	r.u64("ack version")
	sessionID = r.u64("ack session")
	class = r.byte1("ack class")
	errMsg = r.str("ack error")
	return sessionID, class, errMsg, r.err
}

func (w *wbuf) request(id uint64, c *call) {
	w.byte1(frameRequest)
	w.u64(id)
	w.str(c.system)
	w.str(c.function)
	w.cells(c.args)
	w.str(c.trace.TraceID)
	w.str(c.trace.SpanID)
	w.boolv(c.trace.Sampled)
	w.i64(c.deadlineMS)
	w.u64(uint64(len(c.batch)))
	for _, row := range c.batch {
		w.cells(row)
	}
}

// encodeFrameRequest builds the frame of one call under a connection-unique
// id. Batch rows ride the same message type; a non-empty batch makes args
// irrelevant. A call over the frame limit is refused before anything is
// encoded.
func encodeFrameRequest(id uint64, c *call) ([]byte, error) {
	var w wbuf
	w.request(id, c)
	if w.n > maxFrameBytes {
		return nil, errTooLarge("request", w.n)
	}
	w = newFrame(w.n)
	w.request(id, c)
	return w.b, nil
}

// decodeFrameRequest parses a request payload.
func decodeFrameRequest(p []byte) (uint64, *call, error) {
	r := rbuf{b: p}
	if t := r.byte1("request type"); t != frameRequest && r.err == nil {
		return 0, nil, fmt.Errorf("rpc: expected request frame, got type %d", t)
	}
	id := r.u64("request id")
	c := &call{}
	c.system = r.str("request system")
	c.function = r.str("request function")
	c.args = r.cells("request args")
	c.trace.TraceID = r.str("request trace id")
	c.trace.SpanID = r.str("request span id")
	c.trace.Sampled = r.boolv("request sampled")
	c.deadlineMS = r.i64("request deadline")
	if nb := r.count("request batch"); nb > 0 {
		c.batch = make([][]types.Value, 0, nb)
		for i := 0; i < nb && r.err == nil; i++ {
			c.batch = append(c.batch, r.cells("request batch row"))
		}
	}
	return id, c, r.err
}

func (w *wbuf) response(id uint64, rep *reply) {
	w.byte1(frameResponse)
	w.u64(id)
	w.byte1(classOf(rep.err))
	if rep.err != nil {
		w.str(rep.err.Error())
	} else {
		w.str("")
	}
	w.table(rep.table)
	w.meta(rep.meta)
	w.u64(uint64(len(rep.batch)))
	for i, t := range rep.batch {
		if i < len(rep.batchErrs) {
			w.str(rep.batchErrs[i])
		} else {
			w.str("")
		}
		w.table(t)
	}
}

// encodeFrameResponse builds the frame answering request id. The error
// class types rep.err for the client; per-entry batch errors stay strings
// (they are semantic, not transport, failures). A result over the frame
// limit is answered with an ordinary error reply instead: the caller gets
// its answer and the connection is untouched.
func encodeFrameResponse(id uint64, rep *reply) []byte {
	var w wbuf
	w.response(id, rep)
	if w.n > maxFrameBytes {
		rep = &reply{err: errTooLarge("result", w.n)}
		w.n = 0
		w.response(id, rep)
	}
	w = newFrame(w.n)
	w.response(id, rep)
	return w.b
}

// decodeFrameResponse parses a response payload.
func decodeFrameResponse(p []byte) (uint64, *reply, error) {
	r := rbuf{b: p}
	if t := r.byte1("response type"); t != frameResponse && r.err == nil {
		return 0, nil, fmt.Errorf("rpc: expected response frame, got type %d", t)
	}
	id := r.u64("response id")
	rep := &reply{}
	class := r.byte1("response class")
	if msg := r.str("response error"); msg != "" {
		rep.err = errFromWire(class, msg)
	}
	rep.table = r.table("response table")
	rep.meta = r.meta("response meta")
	if nb := r.count("response batch"); nb > 0 {
		rep.batch = make([]*types.Table, 0, nb)
		for i := 0; i < nb && r.err == nil; i++ {
			if msg := r.str("response batch error"); msg != "" {
				if rep.batchErrs == nil {
					rep.batchErrs = make([]string, nb)
				}
				rep.batchErrs[i] = msg
			}
			rep.batch = append(rep.batch, r.table("response batch table"))
		}
	}
	return id, rep, r.err
}

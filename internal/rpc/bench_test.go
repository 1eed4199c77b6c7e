package rpc

import (
	"bytes"
	"context"
	"io"
	"testing"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// The frame codec's own ledger (ROADMAP, wall-clock ledger item (c)): what
// one message costs to encode and to decode, per shape the benchmark
// workloads ship, and what the framing and one loopback round trip add.
//
//	go test -run '^$' -bench . -benchmem ./internal/rpc/

var benchReplies = []struct {
	name string
	rep  *reply
}{
	// wide_result: 2 000 rows of two integers and a 16-byte string.
	{"Wide2000x3", &reply{table: wideTable(2000), meta: map[string]string{"rows": "2000"}}},
	// fed_wfms: one row, one string, the statement's metadata beside it.
	{"OneRow", &reply{
		table: &types.Table{
			Schema: types.Schema{{Name: "Decision", Type: types.VarCharN(30)}},
			Rows:   []types.Row{{types.NewString("order placed")}}},
		meta: map[string]string{"arch": "wfms", "paper_ms": "239.400", "rows": "1"}}},
	// lateral_batch: one chunk of 8 outer rows, one result row each.
	{"Batch8", &reply{batch: func() []*types.Table {
		out := make([]*types.Table, 8)
		for i := range out {
			out[i] = wideTable(1)
		}
		return out
	}()}},
}

var (
	benchFrame []byte
	benchReply *reply
	benchTable *types.Table
)

func BenchmarkEncodeResponse(b *testing.B) {
	for _, shape := range benchReplies {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(encodeFrameResponse(1, shape.rep))))
			for b.Loop() {
				benchFrame = encodeFrameResponse(1, shape.rep)
			}
		})
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	for _, shape := range benchReplies {
		b.Run(shape.name, func(b *testing.B) {
			p := payload(encodeFrameResponse(1, shape.rep))
			b.ReportAllocs()
			b.SetBytes(int64(len(p)))
			for b.Loop() {
				_, rep, err := decodeFrameResponse(p)
				if err != nil {
					b.Fatal(err)
				}
				benchReply = rep
			}
		})
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	c := &call{system: "fdbs", function: "exec", deadlineMS: 30000,
		args: []types.Value{types.NewString("SELECT K, V, S FROM wide WHERE K >= 17")}}
	b.ReportAllocs()
	for b.Loop() {
		frame, err := encodeFrameRequest(1, c)
		if err != nil {
			b.Fatal(err)
		}
		benchFrame = frame
	}
}

// BenchmarkFrameIO is the framing alone: the wide reply's 54 KB frame
// through writeFrame into a buffer and back out through readFrame.
func BenchmarkFrameIO(b *testing.B) {
	frame := encodeFrameResponse(1, benchReplies[0].rep)
	var wire bytes.Buffer
	b.Run("Write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			if err := writeFrame(io.Discard, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Read", func(b *testing.B) {
		if err := writeFrame(&wire, frame); err != nil {
			b.Fatal(err)
		}
		sealed := bytes.NewReader(wire.Bytes())
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			sealed.Seek(0, io.SeekStart)
			p, err := readFrame(sealed)
			if err != nil {
				b.Fatal(err)
			}
			benchFrame = p
		}
	})
}

// deepStack recurses through depth frames of about 1 KB each, so a
// handler that calls it needs depth KB of goroutine stack.
//
//go:noinline
func deepStack(depth int) byte {
	var frame [1024]byte
	frame[depth%len(frame)] = byte(depth)
	if depth == 0 {
		return frame[0]
	}
	return deepStack(depth-1) + frame[(depth*7)%len(frame)]
}

var benchStack byte

// BenchmarkMuxRoundTrip is one call over one framed loopback connection:
// everything above plus two socket writes, two reads and the goroutine
// hand-offs of the mux client and the connection's server worker.
// DeepHandler answers OneRow's reply from a handler that first uses 24 KB
// of stack, as a served statement does on its way through the lexer,
// planner and federated layers: a worker that had to grow its stack anew
// for every request would copy it each time.
func BenchmarkMuxRoundTrip(b *testing.B) {
	shapes := []struct {
		name       string
		rep        *reply
		stackDepth int
	}{
		{benchReplies[0].name, benchReplies[0].rep, 0},
		{benchReplies[1].name, benchReplies[1].rep, 0},
		{"DeepHandler", benchReplies[1].rep, 24},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			srv := NewServerMeta(func(context.Context, *simlat.Task, Request) (*types.Table, map[string]string, error) {
				if shape.stackDepth > 0 {
					benchStack = deepStack(shape.stackDepth)
				}
				return shape.rep.table, shape.rep.meta, nil
			})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := DialMux(addr.String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			req := Request{System: "fdbs", Function: "exec", Args: []types.Value{types.NewString("SELECT K, V, S FROM wide WHERE K >= 17")}}
			ctx, task := context.Background(), simlat.Free()
			b.ReportAllocs()
			for b.Loop() {
				tab, err := c.Call(ctx, task, req)
				if err != nil || tab.Len() != shape.rep.table.Len() {
					b.Fatalf("round trip: %v, %v", tab, err)
				}
				benchTable = tab
			}
		})
	}
}

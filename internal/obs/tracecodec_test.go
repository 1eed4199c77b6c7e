package obs

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"fedwf/internal/simlat"
)

// escapeStrings covers every class of byte a text encoding treats apart
// (the codec must carry them all unchanged): HTML-safe ASCII, the two-byte escapes, other control bytes, the
// HTML-sensitive < > & (SQL attributes carry >=), DEL, multi-byte UTF-8,
// invalid UTF-8 and the two JavaScript line separators.
var escapeStrings = []string{
	"", "fdbs.exec", "udtf.workflow", "fn", "GetSuppQual", "worker", "0", "1",
	`say "hi"`, `C:\path`, "a\bb\fc", "line\nnext\r\tend", "\x00\x01\x1f",
	"d.SupplierNo >= 0 AND x < 3 && y", "del\x7f", "naïve 日本 🎉",
	"bad\xffutf8\xe2\x82", "sep\u2028and\u2029", "\xed\xa0\x80",
	"error: rpc: call failed <nil>",
}

// randomData builds a seeded tree in the serializable form, with every
// field drawn from rng: escapeStrings mixed with random bytes, negative
// and large instants, and empty attribute, step and child lists.
func randomData(rng *rand.Rand, depth int) *SpanData {
	str := func() string {
		if rng.Intn(4) == 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			return string(b)
		}
		return escapeStrings[rng.Intn(len(escapeStrings))]
	}
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Int63()
		case 1:
			return rng.Int63n(10)
		}
		return rng.Int63()
	}
	d := &SpanData{Name: str(), StartNS: num(), ElapsedNS: num()}
	for i := rng.Intn(4); i > 0; i-- {
		d.Attrs = append(d.Attrs, Attr{Key: str(), Value: str()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.Steps = append(d.Steps, StepData{Name: str(), NS: num()})
	}
	if depth > 1 {
		for i := rng.Intn(4); i > 0; i-- {
			d.Children = append(d.Children, randomData(rng, depth-1))
		}
	}
	return d
}

// lateralTree is a retained lateral_batch span tree (220 spans, 47 KB of
// JSON), live, as the collector receives it.
func lateralTree(tb testing.TB) *Span {
	tb.Helper()
	b, err := os.ReadFile("testdata/lateral_batch.json")
	if err != nil {
		tb.Fatal(err)
	}
	var d SpanData
	if err := json.Unmarshal(b, &d); err != nil {
		tb.Fatal(err)
	}
	return SpanFromData(&d, 0)
}

// testTrees are the trees the codec tests run over: the recorded
// lateral_batch tree, one traced on the virtual clock, and seeded random
// ones.
func testTrees(tb testing.TB) []*Span {
	trees := []*Span{lateralTree(tb), buildTree(tb)}
	for seed := int64(1); seed <= 60; seed++ {
		trees = append(trees, SpanFromData(randomData(rand.New(rand.NewSource(seed)), 1+int(seed%7)), 0))
	}
	return trees
}

func marshalLen(tb testing.TB, d *SpanData) int {
	tb.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		tb.Fatal(err)
	}
	return len(b)
}

// truncate returns a copy of the tree cut to depth levels, without nil
// children; spans whose children were dropped carry pruned=children.
func truncate(d *SpanData, depth int) *SpanData {
	out := &SpanData{Name: d.Name, StartNS: d.StartNS, ElapsedNS: d.ElapsedNS,
		Attrs: append([]Attr(nil), d.Attrs...), Steps: append([]StepData(nil), d.Steps...)}
	if depth == 1 {
		if len(d.Children) > 0 {
			out.Attrs = append(out.Attrs, Attr{Key: "pruned", Value: "children"})
		}
		return out
	}
	for _, c := range d.Children {
		if c != nil {
			out.Children = append(out.Children, truncate(c, depth-1))
		}
	}
	return out
}

// encodedLen is the length of the tree's encoding, uncapped.
func encodedLen(d *SpanData) int {
	enc, _ := EncodeTrace(SpanFromData(d, 0), 0)
	return len(enc)
}

// referencePrune is the byte cap as stated: encode the tree cut at every
// depth and keep the deepest cut that fits, else the root alone. It is the
// oracle of EncodeTrace's sizing passes.
func referencePrune(d *SpanData, maxBytes int) *SpanData {
	if d == nil || maxBytes <= 0 || encodedLen(d) <= maxBytes {
		return d
	}
	for depth := height(d) - 1; depth >= 1; depth-- {
		if cut := truncate(d, depth); encodedLen(cut) <= maxBytes {
			return cut
		}
	}
	return truncate(d, 1)
}

// caps are the byte caps a tree of full encoded length n is encoded under:
// none, everything, and cuts from generous down to below the root alone.
func caps(n int) []int { return []int{0, n, n + 1, n - 1, n * 3 / 4, n / 2, n / 5, 200, 1} }

func TestTraceCodecRoundTrip(t *testing.T) {
	pruned := 0
	for i, root := range testTrees(t) {
		d := SnapshotSpan(root)
		for _, maxBytes := range caps(encodedLen(d)) {
			want := referencePrune(d, maxBytes)
			enc, spans := EncodeTrace(root, maxBytes)
			if len(enc) != cap(enc) {
				t.Fatalf("tree %d, cap %d: %d bytes in a %d-byte allocation", i, maxBytes, len(enc), cap(enc))
			}
			got, err := DecodeTrace(enc)
			if err != nil {
				t.Fatalf("tree %d, cap %d: %v", i, maxBytes, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tree %d, cap %d: decode(encode(root)) differs from the reference cut", i, maxBytes)
			}
			if maxBytes > 0 && len(enc) > maxBytes && len(got.Children) > 0 {
				t.Fatalf("tree %d, cap %d: %d bytes kept below the root", i, maxBytes, len(enc))
			}
			if spans != want.SpanCount() {
				t.Fatalf("tree %d, cap %d: %d spans counted, %d kept", i, maxBytes, spans, want.SpanCount())
			}
			if want != d {
				pruned++
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no cap pruned any tree")
	}
	if enc, n := EncodeTrace(nil, 100); enc != nil || n != 0 {
		t.Errorf("nil tree encoded to %v, %d spans", enc, n)
	}
	if d, err := DecodeTrace(nil); d != nil || err != nil {
		t.Errorf("empty input decoded to %v, %v", d, err)
	}
}

// TestCompactTraceIsSmall pins the point of the encoding on the recorded
// lateral_batch tree: a fraction of its JSON.
func TestCompactTraceIsSmall(t *testing.T) {
	root := lateralTree(t)
	enc, spans := EncodeTrace(root, 128<<10)
	full := marshalLen(t, SnapshotSpan(root))
	if spans != 220 || len(enc)*6 > full {
		t.Errorf("lateral_batch: %d spans in %d bytes against %d of JSON", spans, len(enc), full)
	}
	t.Logf("lateral_batch: %d spans, %d bytes compact, %d bytes JSON", spans, len(enc), full)
}

func TestDecodeTraceRejectsMalformedInput(t *testing.T) {
	enc, _ := EncodeTrace(lateralTree(t), 0)
	for _, bad := range [][]byte{
		enc[:len(enc)-1],                   // truncated
		append(enc[:len(enc):len(enc)], 0), // trailing byte
		{1},                                // a table reference into an empty table
		{0, 5, 'a'},                        // a string longer than the input
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // varint overflow
		{0, 0, 0, 0, 0x7f}, // more attributes than bytes
	} {
		if d, err := DecodeTrace(bad); err == nil {
			t.Errorf("DecodeTrace(% x) = %+v, want an error", bad, d)
		}
	}
}

// FuzzTraceCodec builds a tree from arbitrary bytes — span attributes carry
// client SQL and error text — and checks that decoding the raw input never
// panics, that the encoding under a cap round-trips to the reference cut,
// and that it is within the cap unless only the root is left.
func FuzzTraceCodec(f *testing.F) {
	enc, _ := EncodeTrace(buildTree(f), 0)
	f.Add(enc)
	f.Add([]byte("SELECT * FROM t WHERE a >= 1 AND b <> '\u2028' \xff\x00"))
	f.Add([]byte{3, 2, 1, 0, 0xff, '"', '\\', '\n', '<', '&'})
	f.Fuzz(func(t *testing.T, in []byte) {
		_, _ = DecodeTrace(in)
		root := SpanFromData(treeFromBytes(in), 0)
		maxBytes := 1 + len(in)/2
		enc, spans := EncodeTrace(root, maxBytes)
		got, err := DecodeTrace(enc)
		if err != nil {
			t.Fatal(err)
		}
		want := referencePrune(SnapshotSpan(root), maxBytes)
		if !reflect.DeepEqual(got, want) || spans != want.SpanCount() {
			t.Fatalf("round trip under cap %d differs from the reference cut", maxBytes)
		}
		if len(enc) > maxBytes && len(got.Children) > 0 {
			t.Fatalf("%d bytes over the cap of %d with %d spans kept", len(enc), maxBytes, spans)
		}
	})
}

// treeFromBytes reads a small tree out of in: every string and number of
// it comes from the input, so arbitrary bytes reach the encoder.
func treeFromBytes(in []byte) *SpanData {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	str := func() string {
		n := min(int(next()%16), len(in))
		s := string(in[:n])
		in = in[n:]
		return s
	}
	num := func() int64 {
		v := int64(int8(next()))
		for i := next() % 8; i > 0; i-- {
			v = v<<8 | int64(next())
		}
		return v
	}
	spans := 0
	var span func(depth int) *SpanData
	span = func(depth int) *SpanData {
		spans++
		d := &SpanData{Name: str(), StartNS: num(), ElapsedNS: num()}
		for i := next() % 4; i > 0; i-- {
			d.Attrs = append(d.Attrs, Attr{Key: str(), Value: str()})
		}
		for i := next() % 3; i > 0; i-- {
			d.Steps = append(d.Steps, StepData{Name: str(), NS: num()})
		}
		for i := next() % 4; i > 0 && depth < 6 && spans < 64 && len(in) > 0; i-- {
			d.Children = append(d.Children, span(depth+1))
		}
		return d
	}
	return span(1)
}

func BenchmarkEncodeTrace(b *testing.B) {
	root := lateralTree(b)
	b.ReportAllocs()
	for b.Loop() {
		EncodeTrace(root, 128<<10)
	}
}

// BenchmarkStartSpanEnd is the cost of one instrumentation site on a
// traced task: a span opened under the current one and closed again.
func BenchmarkStartSpanEnd(b *testing.B) {
	task := simlat.NewVirtualTask()
	tr := Trace(task, "root")
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if i%1024 == 0 {
			// Keep the root's child list from growing without bound.
			tr.Finish()
			tr = Trace(task, "root")
		}
		sp := StartSpan(task, "exec.op", Attr{Key: "op", Value: "Scan"})
		task.Step("work", time.Microsecond)
		sp.End(task)
	}
}

package obs

import "unicode/utf8"

// The JSON length of a span tree, counted without encoding it: the byte
// count encoding/json writes for a SpanData (HTML-safe escaping included),
// for every depth the tree could be pruned to, in one pass. A trace's byte
// cap means this length, so the collector can choose how deep to keep a
// tree before it writes anything.

// Fixed bytes of the SpanData JSON shape:
//
//	{"name":…,"start_ns":…,"elapsed_ns":…,"attrs":[…],"steps":[…],"children":[…]}
const (
	jsonSpanFixed     = len(`{"name":,"start_ns":,"elapsed_ns":}`)
	jsonAttrsFixed    = len(`,"attrs":[]`)
	jsonStepsFixed    = len(`,"steps":[]`)
	jsonChildrenFixed = len(`,"children":[]`)
	jsonAttrFixed     = len(`{"key":,"value":}`)
	jsonStepFixed     = len(`{"name":,"ns":}`)
	jsonNull          = len(`null`)
	// jsonPrunedAttr is the attribute truncation adds to a span whose
	// children it drops.
	jsonPrunedAttr = jsonAttrFixed + len(`"pruned"`) + len(`"children"`)
)

// jsonByteExtra is what encoding/json adds to an ASCII byte beyond the byte
// itself: 0 for the HTML-safe set, 1 for the two-byte escapes (\" \\ \b \f
// \n \r \t), 5 for \u00XX (other control bytes, and < > &). Bytes from
// utf8.RuneSelf up take the rune path in jsonStringLen.
var jsonByteExtra = func() (t [utf8.RuneSelf]uint8) {
	for b := range t {
		switch {
		case b == '"' || b == '\\' || b == '\b' || b == '\f' || b == '\n' || b == '\r' || b == '\t':
			t[b] = 1
		case b < 0x20 || b == '<' || b == '>' || b == '&':
			t[b] = 5
		}
	}
	return t
}()

// jsonStringLen is the length of s as a JSON string, quotes included.
func jsonStringLen(s string) int {
	n := 2 + len(s)
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			n += int(jsonByteExtra[b])
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if (c == utf8.RuneError && size == 1) || c == '\u2028' || c == '\u2029' {
			// Invalid UTF-8 is written as \ufffd, the two line separators
			// as \u2028 and \u2029: six bytes each.
			n += 6 - size
		}
		i += size
	}
	return n
}

// jsonIntLen is the length of v in decimal.
func jsonIntLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// levelSize accumulates the JSON bytes of one level of a tree.
type levelSize struct {
	// spans is the level's spans without their children fields.
	spans int
	// kids is the level's children fields: each "children":[…] wrapper with
	// its separating commas.
	kids int
	// pruned is what cutting the tree below this level adds: the pruned
	// attribute on each of the level's spans that has children.
	pruned int
}

// addSpan folds one span at level (0 is the root) into lv, growing lv by a
// level when the span is the first that deep.
func addSpan(lv []levelSize, level, own int, hasAttrs bool, children int) []levelSize {
	if level == len(lv) {
		lv = append(lv, levelSize{})
	}
	l := &lv[level]
	l.spans += own
	if children > 0 {
		l.kids += jsonChildrenFixed + children - 1
		if hasAttrs {
			l.pruned += 1 + jsonPrunedAttr
		} else {
			l.pruned += jsonAttrsFixed + jsonPrunedAttr
		}
	}
	return lv
}

// jsonSizeAt is the JSON length of the tree cut to its top keep levels:
// those levels' spans, the children fields of every level above the last,
// and the pruned attributes of the last.
func jsonSizeAt(lv []levelSize, keep int) int {
	n := 0
	for i := 0; i < keep; i++ {
		n += lv[i].spans
		if i < keep-1 {
			n += lv[i].kids
		}
	}
	return n + lv[keep-1].pruned
}

// pruneDepth is how many levels of a tree with the level sizes lv to keep
// under a cap of maxBytes: all of them when the whole tree fits, else the
// deepest cut that fits, else only the root, which survives even over the
// cap.
func pruneDepth(lv []levelSize, maxBytes int) int {
	if jsonSizeAt(lv, len(lv)) <= maxBytes {
		return len(lv)
	}
	keep := 1
	for d := 2; d < len(lv); d++ {
		if jsonSizeAt(lv, d) <= maxBytes {
			keep = d
		}
	}
	return keep
}

package stats

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// FuzzFingerprint holds the lexical normalizer to its contract on
// arbitrary byte soup: it is total (never panics, any input normalizes),
// deterministic, idempotent (the normalized form is its own fingerprint
// form), and the ID is 16 lower-case hex digits of the normalized text's
// FNV-64a — so equal normal forms coalesce to equal IDs no matter how the
// literals differed.
func FuzzFingerprint(f *testing.F) {
	f.Add("SELECT Qual FROM SuppQual WHERE SuppNo = 42")
	f.Add("select qual from suppqual where suppno = ?")
	f.Add("INSERT INTO t VALUES ('it''s', 1.5e-3, 'unterminated")
	f.Add("  spaced\t\tout \n query  ")
	f.Add("'")
	f.Add("café λ \x00\xff binary")
	f.Add("")

	f.Fuzz(func(t *testing.T, sql string) {
		id, norm := Fingerprint(sql)
		if len(id) != 16 || strings.ToLower(id) != id {
			t.Fatalf("fingerprint id %q is not 16 lower-case hex digits", id)
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("fingerprint id %q has non-hex digit %q", id, c)
			}
		}
		h := fnv.New64a()
		h.Write([]byte(norm))
		if want := fmt.Sprintf("%016x", h.Sum64()); id != want {
			t.Fatalf("fingerprint id %q is not FNV-64a of %q (%s)", id, norm, want)
		}
		id2, norm2 := Fingerprint(sql)
		if id2 != id || norm2 != norm {
			t.Fatalf("Fingerprint is not deterministic: (%q,%q) then (%q,%q)", id, norm, id2, norm2)
		}
		if again := Normalize(norm); again != norm {
			t.Fatalf("Normalize is not idempotent:\n once  %q\n twice %q", norm, again)
		}
		idNorm, _ := Fingerprint(norm)
		if idNorm != id {
			t.Fatalf("normalized text fingerprints differently: %q vs %q", idNorm, id)
		}
		if sql != "" && norm == "" && strings.TrimSpace(sql) != "" &&
			!strings.ContainsAny(sql, "'") {
			t.Fatalf("non-empty input %q normalized to nothing", sql)
		}
	})
}

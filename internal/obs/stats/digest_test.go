package stats

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fingerprintOutcomesSHA256 is the SHA-256 of every (input, id, normalized)
// triple of fingerprintCorpus, taken from the strings.Builder normalizer.
// Any change to what Fingerprint returns for any input of the corpus moves
// it, so a rewrite of the normalizer must leave it where it is.
const fingerprintOutcomesSHA256 = "68156afdf6ad08fe24a84c2a81e65673338205e00ac0fe95886d380bd96198d4"

// fingerprintCorpus generates the statements the digest pins: fedbench's
// statement shapes with fresh literals and random spacing, and token soups
// over the normalizer's every branch — quoted strings, with doubled quotes
// inside and unterminated, numbers with dots and exponents (complete,
// signed and dangling), tabs, newlines and carriage returns, non-ASCII and
// control bytes, and identifiers in mixed case with underscores and digits.
func fingerprintCorpus() []string {
	shapes := []string{
		"SELECT * FROM TABLE (GetSuppQual(%s)) AS R",
		"SELECT * FROM TABLE (BuySuppComp(%s, %s)) AS R",
		"SELECT d.SupplierNo, F.Qual, F.Relia FROM drv d, TABLE (GetSuppQualRelia(d.SupplierNo)) AS F WHERE d.SupplierNo >= %s",
		"SELECT l.K, COUNT(*), SUM(r.W) FROM l, r WHERE l.K = r.K AND l.V >= %s GROUP BY l.K",
		"SELECT K, V, S FROM wide WHERE K >= %s",
		"UPDATE kv SET V = V + 1 WHERE K = %s",
		"INSERT INTO kv VALUES (%s, %s)",
		"DELETE FROM kv WHERE K = %s",
		"SELECT V FROM kv WHERE K = %s",
		"SELECT Trace, Spans FROM fed_traces WHERE Trace = %s",
	}
	literals := []string{"0", "42", "-7", "3.25", "1e5", "2.5E-3", "6e+2", "7e", "8E+", "1.2.3",
		"'washer'", "'Supplier3'", "'it''s'", "''", "'a''''b'", "'café'", "'λ\t\n'", "'unterminated"}
	soup := []string{"SELECT", "select", "SeLeCt", "FROM", "where", "_x", "Col_9", "a1b2", "ZzAa_09", "_Z", "ÀB", "λx",
		"é", "\xff", "\x00", "\x80abc", "(", ")", ",", ".", "*", "=", ">=", "<>", "+", "-", ";",
		"'", "''", "'q''q'", "'open", "12", "0.5", "9.", ".5", "3e10", "4E-2", "5e+", "6e-x", "77e9z",
		" ", "  ", "\t", "\n", "\r\n", " \t\n "}
	spaces := []string{" ", "  ", "\t", "\n", " \r\n\t"}

	var out []string
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		shape := shapes[r.Intn(len(shapes))]
		args := make([]any, strings.Count(shape, "%s"))
		for i := range args {
			args[i] = literals[r.Intn(len(literals))]
		}
		text := fmt.Sprintf(shape, args...)
		out = append(out, text)
		// The same statement respaced: every single space becomes a random
		// run, and the whole is padded.
		var b strings.Builder
		b.WriteString(spaces[r.Intn(len(spaces))])
		for _, f := range strings.Split(text, " ") {
			b.WriteString(f)
			b.WriteString(spaces[r.Intn(len(spaces))])
		}
		out = append(out, b.String())
		// A token soup, half of it glued without separators.
		b.Reset()
		for n := r.Intn(24); n >= 0; n-- {
			b.WriteString(soup[r.Intn(len(soup))])
			if r.Intn(2) == 0 {
				b.WriteByte(' ')
			}
		}
		out = append(out, b.String())
	}
	return append(out, "", " ", "'", "\t\n", strings.Repeat("Ab_1 '' 2.5e-3 ", 200))
}

func TestFingerprintOutcomesDigest(t *testing.T) {
	h := sha256.New()
	corpus := fingerprintCorpus()
	for _, in := range corpus {
		id, norm := Fingerprint(in)
		fmt.Fprintf(h, "%q\n%s\n%q\n", in, id, norm)
		if got := Normalize(in); got != norm {
			t.Errorf("Normalize(%q) = %q, Fingerprint normalized it to %q", in, got, norm)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != fingerprintOutcomesSHA256 {
		t.Errorf("fingerprint outcomes of %d inputs hash to %s, want %s", len(corpus), got, fingerprintOutcomesSHA256)
	}
}

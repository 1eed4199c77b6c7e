// Package stats is the statement-statistics warehouse: a
// pg_stat_statements-style aggregate store for the federation. Every
// served statement is fingerprinted (literal-normalized SQL, hashed to a
// stable ID) and folded into per-fingerprint and per-federated-function
// aggregates — call counts, rows, errors by resil taxonomy class,
// retries, breaker trips, cache outcomes, RPC and workflow-instance
// counts, batch fill, and paper-latency quantiles from a deterministic
// log-bucket sketch. The warehouse is bounded (LRU eviction of cold
// fingerprints) and surfaced two ways: Prometheus series on the shared
// registry, and the fed_stat_statements / fed_stat_functions virtual
// tables queryable through the federation's own SQL path.
//
// Unlike the trace collector's ring, the warehouse never forgets a hot
// statement: aggregates survive long after the individual traces aged
// out, which is what the roadmap's adaptive cost-based planner feeds on.
package stats

// Fingerprint literal-normalizes a SQL text and returns the stable
// fingerprint ID (16 hex digits of FNV-64a over the normalized form)
// together with the normalized text itself. Two statements differing only
// in literals — numbers or quoted strings — normalize identically and
// therefore coalesce to one fingerprint.
func Fingerprint(sql string) (id, normalized string) {
	var buf [normBufBytes]byte
	norm := appendNormalized(buf[:0], sql)
	hexID := fingerprintOf(norm)
	return string(hexID[:]), string(norm)
}

// Normalize rewrites a SQL text into its fingerprint form: string and
// numeric literals become '?', letters fold to lower case, and runs of
// whitespace collapse to one space. The rewrite is purely lexical — it
// does not parse — so it is total: any input normalizes, including
// statements the parser would reject.
func Normalize(sql string) string {
	var buf [normBufBytes]byte
	return string(appendNormalized(buf[:0], sql))
}

// normBufBytes is the stack buffer a statement normalizes into; only a
// longer statement's normal form reaches the heap.
const normBufBytes = 512

// fingerprintOf is the fingerprint ID of a normalized text: FNV-64a
// (hash/fnv's New64a), as 16 lower-case hex digits.
func fingerprintOf(norm []byte) [16]byte {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	sum := uint64(offset64)
	for _, c := range norm {
		sum ^= uint64(c)
		sum *= prime64
	}
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[sum&0xf]
		sum >>= 4
	}
	return b
}

// appendNormalized appends sql's fingerprint form (see Normalize) to dst.
func appendNormalized(dst []byte, sql string) []byte {
	start := len(dst)
	i := 0
	pendingSpace := false
	// space writes the one space a run of whitespace collapses to, before
	// the next token and never at the start.
	space := func() {
		if pendingSpace && len(dst) > start {
			dst = append(dst, ' ')
		}
		pendingSpace = false
	}
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pendingSpace = true
			i++
		case c == '\'':
			// String literal; '' escapes a quote inside it.
			i++
			for i < len(sql) {
				if sql[i] == '\'' {
					if i+1 < len(sql) && sql[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			space()
			dst = append(dst, '?')
		case c >= '0' && c <= '9':
			// Numeric literal (integer or decimal, with exponent).
			j := i
			for j < len(sql) && (isDigit(sql[j]) || sql[j] == '.') {
				j++
			}
			if j < len(sql) && (sql[j] == 'e' || sql[j] == 'E') {
				k := j + 1
				if k < len(sql) && (sql[k] == '+' || sql[k] == '-') {
					k++
				}
				if k < len(sql) && isDigit(sql[k]) {
					for k < len(sql) && isDigit(sql[k]) {
						k++
					}
					j = k
				}
			}
			i = j
			space()
			dst = append(dst, '?')
		case isIdentStart(c):
			// Identifiers are ASCII, so folding byte by byte is
			// strings.ToLower.
			space()
			for ; i < len(sql) && isIdentPart(sql[i]); i++ {
				c := sql[i]
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				dst = append(dst, c)
			}
		default:
			// Byte-preserving: string(c) would UTF-8-encode bytes >= 0x80
			// and re-encode (grow) non-ASCII text on every pass.
			space()
			dst = append(dst, c)
			i++
		}
	}
	return dst
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

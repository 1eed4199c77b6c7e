package exec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedwf/internal/types"
)

// stringKey is the cache key FuncCache built before it hashed: the
// lowercased name, then each argument's kind tag and SQL rendering. It is
// the oracle for which calls share an entry.
func stringKey(name string, args []types.Value) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(name))
	for _, a := range args {
		b.WriteByte('\x00')
		b.WriteByte('0' + byte(a.Kind()))
		b.WriteString(a.String())
	}
	return b.String()
}

// keyPool holds values whose hashes or renderings come close: integer 1,
// double 1.0 and string '1'; 0.0 and -0.0; two NaN payloads; strings that
// differ in case or quoting.
var keyPool = []types.Value{
	types.Null,
	types.NewInt(0), types.NewInt(1), types.NewInt(-1), types.NewInt(math.MaxInt64),
	types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1), types.NewFloat(1.5),
	types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0xfff8000000000002)),
	types.NewFloat(math.Inf(1)), types.NewFloat(1 << 62),
	types.NewString(""), types.NewString("1"), types.NewString("a"), types.NewString("A"),
	types.NewString("a'b"), types.NewString("NULL"),
	types.NewBool(true), types.NewBool(false),
}

var keyNames = []string{"f", "F", "g", "GetSuppQual", "getsuppqual", "fé", "FÉ", "ſ", "s"}

// TestFuncCacheKeyMatchesStringKey: over generated calls, two calls share a
// cache entry exactly when the string key made them share one.
func TestFuncCacheKeyMatchesStringKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		fc := NewFuncCache()
		entries := map[string]*funcCall{}
		for i := 0; i < 400; i++ {
			name := keyNames[rng.Intn(len(keyNames))]
			args := make([]types.Value, rng.Intn(3))
			for j := range args {
				args[j] = keyPool[rng.Intn(len(keyPool))]
			}
			key := stringKey(name, args)
			c, outcome := fc.acquire(name, args)
			want, seen := entries[key]
			switch {
			case !seen && outcome != CacheMiss:
				t.Fatalf("%s%v joined an entry the string key keeps apart (%q)", name, args, key)
			case seen && c != want:
				t.Fatalf("%s%v missed the entry the string key shares (%q)", name, args, key)
			case !seen:
				entries[key] = c
				if rng.Intn(2) == 0 {
					close(c.done) // leave some in flight: coalesced, not hit
				}
			}
		}
	}
}

// TestFuncCacheAcquireDoesNotAllocate: a lookup that finds its entry,
// colliding hashes included, allocates nothing.
func TestFuncCacheAcquireDoesNotAllocate(t *testing.T) {
	fc := NewFuncCache()
	one, oneF := []types.Value{types.NewInt(1)}, []types.Value{types.NewFloat(1)}
	for _, args := range [][]types.Value{one, oneF} {
		c, _ := fc.acquire("GetSuppQual", args)
		close(c.done)
	}
	if callHash("GetSuppQual", one) != callHash("getsuppqual", oneF) {
		t.Fatal("integer 1 and double 1.0 no longer collide: the test covers no chain")
	}
	if n := testing.AllocsPerRun(100, func() { fc.acquire("getsuppqual", oneF) }); n != 0 {
		t.Errorf("a hit allocates %v times", n)
	}
	if h, m := fc.Stats(); m != 2 || h < 100 {
		t.Errorf("hits %d, misses %d; want ≥ 100 and 2", h, m)
	}
}

// BenchmarkFuncCacheAcquire is one hit in a cache of 64 entries, the
// outer rows of lateral_batch over ten keys.
func BenchmarkFuncCacheAcquire(b *testing.B) {
	fc := NewFuncCache()
	args := make([][]types.Value, 64)
	for i := range args {
		args[i] = []types.Value{types.NewInt(int64(i)), types.NewString("washer")}
		c, _ := fc.acquire("GetSuppQualRelia", args[i])
		close(c.done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, o := fc.acquire("GetSuppQualRelia", args[i%64]); o != CacheHit {
			b.Fatal("miss")
		}
	}
}

package types

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseType(t *testing.T) {
	cases := []struct {
		in   string
		want Type
		err  bool
	}{
		{"INT", Integer, false},
		{"integer", Integer, false},
		{"BIGINT", BigInt, false},
		{"LONG", BigInt, false},
		{"SMALLINT", SmallInt, false},
		{"DOUBLE", Double, false},
		{"DOUBLE PRECISION", Double, false},
		{"VARCHAR", VarChar, false},
		{"VARCHAR(30)", VarCharN(30), false},
		{"varchar( 7 )", VarCharN(7), false},
		{"BOOLEAN", Boolean, false},
		{"FROB", Type{}, true},
		{"VARCHAR(x)", Type{}, true},
		{"VARCHAR)x(", Type{}, true},
	}
	for _, c := range cases {
		got, err := ParseType(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseType(%q): expected error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseType(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseType(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	if got := VarCharN(12).String(); got != "VARCHAR(12)" {
		t.Errorf("VarCharN(12).String() = %q", got)
	}
	if got := Integer.String(); got != "INTEGER" {
		t.Errorf("Integer.String() = %q", got)
	}
	if got := (Type{}).String(); got != "UNKNOWN" {
		t.Errorf("zero Type String() = %q", got)
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("zero Value must be NULL")
	}
	if v := NewInt(42); v.Int() != 42 || v.Kind() != KindInt {
		t.Errorf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 {
		t.Errorf("NewFloat: %v", v)
	}
	if v := NewString("abc"); v.Str() != "abc" {
		t.Errorf("NewString: %v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool: %v", v)
	}
}

func TestCoercions(t *testing.T) {
	if n, err := NewString(" 17 ").AsInt(); err != nil || n != 17 {
		t.Errorf("AsInt('17') = %d, %v", n, err)
	}
	if _, err := NewString("x").AsInt(); err == nil {
		t.Error("AsInt('x') should fail")
	}
	if f, err := NewInt(3).AsFloat(); err != nil || f != 3.0 {
		t.Errorf("AsFloat(3) = %v, %v", f, err)
	}
	if b, err := NewString("Yes").AsBool(); err != nil || !b {
		t.Errorf("AsBool('Yes') = %v, %v", b, err)
	}
	if b, err := NewInt(0).AsBool(); err != nil || b {
		t.Errorf("AsBool(0) = %v, %v", b, err)
	}
	if _, err := Null.AsInt(); err == nil {
		t.Error("AsInt(NULL) should fail")
	}
	if _, err := Null.AsString(); err == nil {
		t.Error("AsString(NULL) should fail")
	}
	if _, err := NewString("maybe").AsBool(); err == nil {
		t.Error("AsBool('maybe') should fail")
	}
	if n, err := NewFloat(9.9).AsInt(); err != nil || n != 9 {
		t.Errorf("AsInt(9.9) = %d, %v (truncation expected)", n, err)
	}
	if _, err := NewFloat(math.NaN()).AsInt(); err == nil {
		t.Error("AsInt(NaN) should fail")
	}
	if b, err := NewBool(true).AsInt(); err != nil || b != 1 {
		t.Errorf("AsInt(true) = %d, %v", b, err)
	}
	if f, err := NewBool(true).AsFloat(); err != nil || f != 1 {
		t.Errorf("AsFloat(true) = %v, %v", f, err)
	}
	if f, err := NewFloat(1.25).AsBool(); err != nil || !f {
		t.Errorf("AsBool(1.25) = %v, %v", f, err)
	}
}

func TestFormatAndString(t *testing.T) {
	cases := []struct {
		v      Value
		format string
		str    string
	}{
		{Null, "NULL", "NULL"},
		{NewInt(-5), "-5", "-5"},
		{NewFloat(1.5), "1.5", "1.5"},
		{NewBool(false), "FALSE", "FALSE"},
		{NewString("o'brian"), "o'brian", "'o''brian'"},
	}
	for _, c := range cases {
		if got := c.v.Format(); got != c.format {
			t.Errorf("Format(%v) = %q, want %q", c.v, got, c.format)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestCompare(t *testing.T) {
	lt := [][2]Value{
		{NewInt(1), NewInt(2)},
		{NewInt(1), NewFloat(1.5)},
		{NewFloat(-1), NewInt(0)},
		{NewString("a"), NewString("b")},
		{NewBool(false), NewBool(true)},
	}
	for _, p := range lt {
		c, err := Compare(p[0], p[1])
		if err != nil || c != -1 {
			t.Errorf("Compare(%v,%v) = %d,%v; want -1", p[0], p[1], c, err)
		}
		c, err = Compare(p[1], p[0])
		if err != nil || c != 1 {
			t.Errorf("Compare(%v,%v) = %d,%v; want 1", p[1], p[0], c, err)
		}
	}
	if c, err := Compare(NewInt(3), NewFloat(3.0)); err != nil || c != 0 {
		t.Errorf("Compare(3, 3.0) = %d, %v", c, err)
	}
	if _, err := Compare(Null, NewInt(1)); err != ErrNullCompare {
		t.Errorf("Compare with NULL: %v", err)
	}
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("Compare string/int should fail")
	}
	if _, err := Compare(NewBool(true), NewString("t")); err == nil {
		t.Error("Compare bool/string should fail")
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(2).Equal(NewFloat(2.0)) {
		t.Error("2 must equal 2.0")
	}
	if NewInt(2).Equal(NewString("2")) {
		t.Error("2 must not equal '2'")
	}
	if !Null.Equal(Null) {
		t.Error("NULL Equal NULL (identity semantics)")
	}
	if Null.Equal(NewInt(0)) {
		t.Error("NULL != 0")
	}
	nan := NewFloat(math.NaN())
	if !nan.Equal(nan) {
		t.Error("NaN identity equality expected for grouping")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(7), NewFloat(7.0)},
		{NewInt(0), NewFloat(0)},
		{NewInt(-3), NewFloat(-3)},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values %v and %v hash differently", p[0], p[1])
		}
	}
	if NewString("a").Hash() == NewString("b").Hash() {
		t.Error("suspicious collision a/b")
	}
}

// referenceHash is Value.Hash as it was written over hash/fnv: the byte
// sequence the inline version must reproduce, so that join, group and
// index buckets stay where they were.
func referenceHash(v Value) uint64 {
	h := fnv.New64a()
	numeric := func(integral byte, word uint64) {
		buf := [10]byte{2, integral}
		for k := 0; k < 8; k++ {
			buf[2+k] = byte(word >> (8 * k))
		}
		h.Write(buf[:])
	}
	switch v.Kind() {
	case KindNull:
		h.Write([]byte{0})
	case KindBool:
		if v.Bool() {
			h.Write([]byte{1, 1})
		} else {
			h.Write([]byte{1, 0})
		}
	case KindInt:
		numeric(1, uint64(v.Int()))
	case KindFloat:
		if f := v.Float(); f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			numeric(1, uint64(int64(f)))
		} else {
			numeric(0, math.Float64bits(f))
		}
	case KindString:
		h.Write([]byte{3})
		h.Write([]byte(v.Str()))
	}
	return h.Sum64()
}

// hashSamples covers every kind and the numeric edges of Hash.
var hashSamples = []Value{
	Null, NewBool(true), NewBool(false),
	NewInt(0), NewInt(1), NewInt(-1), NewInt(42), NewInt(1 << 53), NewInt(-(1 << 53)), NewInt(1<<53 + 1),
	NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(-1), NewFloat(0.5), NewFloat(-2.75),
	NewFloat(1 << 53), NewFloat(-(1 << 53)), NewFloat(1<<53 + 2), NewFloat(-(1 << 63)), NewFloat(1 << 62),
	NewFloat(1e300), NewFloat(-1e300), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
	NewFloat(math.SmallestNonzeroFloat64), NewFloat(math.MaxFloat64),
	NewString(""), NewString("a"), NewString("washer"), NewString("Größe"), NewString("日本語"), NewString("\x00\xff"),
	NewString(strings.Repeat("x", 300)),
}

func TestHashEqualsFNVReference(t *testing.T) {
	for _, v := range hashSamples {
		if got, want := v.Hash(), referenceHash(v); got != want {
			t.Errorf("Hash(%s %v) = %#x, hash/fnv reference %#x", v.Kind(), v, got, want)
		}
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		v := randValue(r, true)
		if got, want := v.Hash(), referenceHash(v); got != want {
			t.Fatalf("Hash(%s %v) = %#x, hash/fnv reference %#x", v.Kind(), v, got, want)
		}
	}
}

// 2^63 is integral but outside int64: it must hash by its float bits, not
// through an int64 conversion whose result depends on the platform.
func TestHashAtTwoToThe63(t *testing.T) {
	v := NewFloat(1 << 63)
	if v.Hash() == NewInt(math.MinInt64).Hash() || v.Hash() == NewInt(math.MaxInt64).Hash() {
		t.Error("2^63 hashes like an int64 it does not equal")
	}
	if got, want := v.Hash(), hashNumeric(0, math.Float64bits(1<<63)); got != want {
		t.Errorf("Hash(2^63) = %#x, want the non-integral image %#x", got, want)
	}
	if NewFloat(-(1 << 63)).Hash() != NewInt(math.MinInt64).Hash() {
		t.Error("-2^63 fits int64 and must hash like it")
	}
}

func TestHashEqualImpliesSameHash(t *testing.T) {
	// Across INT and DOUBLE the guarantee holds up to 2^53, where every
	// integer still has its own double.
	small := func(v Value) bool {
		switch v.Kind() {
		case KindInt:
			return v.Int() >= -(1<<53) && v.Int() <= 1<<53
		case KindFloat:
			return math.Abs(v.Float()) <= 1<<53
		}
		return false
	}
	for _, a := range hashSamples {
		for _, b := range hashSamples {
			if (a.Kind() == b.Kind() || small(a) && small(b)) && a.Equal(b) && a.Hash() != b.Hash() {
				t.Errorf("%s %v equals %s %v but hashes differ", a.Kind(), a, b.Kind(), b)
			}
		}
	}
}

func TestHashDoesNotAllocate(t *testing.T) {
	var sink uint64
	for _, v := range hashSamples {
		if n := testing.AllocsPerRun(100, func() { sink += v.Hash() }); n != 0 {
			t.Errorf("Hash(%s %v) allocates %v times", v.Kind(), v, n)
		}
	}
	_ = sink
}

func TestCast(t *testing.T) {
	if v, err := Cast(NewInt(5), VarCharN(1)); err != nil || v.Str() != "5" {
		t.Errorf("Cast(5, VARCHAR(1)) = %v, %v", v, err)
	}
	if v, err := Cast(NewString("hello"), VarCharN(3)); err != nil || v.Str() != "hel" {
		t.Errorf("Cast truncation = %v, %v", v, err)
	}
	if v, err := Cast(NewString("12"), Integer); err != nil || v.Int() != 12 {
		t.Errorf("Cast('12', INT) = %v, %v", v, err)
	}
	if _, err := Cast(NewInt(1<<40), Integer); err == nil {
		t.Error("INT range check missing")
	}
	if _, err := Cast(NewInt(40000), SmallInt); err == nil {
		t.Error("SMALLINT range check missing")
	}
	if v, err := Cast(NewInt(1<<40), BigInt); err != nil || v.Int() != 1<<40 {
		t.Errorf("Cast BIGINT = %v, %v", v, err)
	}
	if v, err := Cast(Null, Integer); err != nil || !v.IsNull() {
		t.Errorf("Cast(NULL) = %v, %v", v, err)
	}
	if v, err := Cast(NewInt(1), Boolean); err != nil || !v.Bool() {
		t.Errorf("Cast(1, BOOLEAN) = %v, %v", v, err)
	}
	if v, err := Cast(NewInt(2), Double); err != nil || v.Float() != 2 {
		t.Errorf("Cast(2, DOUBLE) = %v, %v", v, err)
	}
	if _, err := Cast(NewInt(1), Type{}); err == nil {
		t.Error("cast to unknown type should fail")
	}
}

func TestConforms(t *testing.T) {
	if !Conforms(Null, Integer) {
		t.Error("NULL conforms to all")
	}
	if !Conforms(NewInt(1), Integer) || Conforms(NewString("1"), Integer) {
		t.Error("integer conformance wrong")
	}
	if !Conforms(NewInt(1), Double) || !Conforms(NewFloat(1), Double) {
		t.Error("numeric widening conformance wrong")
	}
	if !Conforms(NewString("x"), VarChar) || Conforms(NewInt(1), VarChar) {
		t.Error("varchar conformance wrong")
	}
	if !Conforms(NewBool(true), Boolean) || Conforms(NewInt(1), Boolean) {
		t.Error("boolean conformance wrong")
	}
}

func TestTypeOf(t *testing.T) {
	if TypeOf(NewInt(1)) != BigInt || TypeOf(NewFloat(1)) != Double ||
		TypeOf(NewString("")) != VarChar || TypeOf(NewBool(true)) != Boolean {
		t.Error("TypeOf mismatch")
	}
	if TypeOf(Null).Base != UnknownType {
		t.Error("TypeOf(NULL) should be unknown")
	}
}

func randValue(r *rand.Rand, allowNull bool) Value {
	n := 5
	if !allowNull {
		n = 4
	}
	switch r.Intn(n) {
	case 0:
		return NewInt(r.Int63() - r.Int63())
	case 1:
		return NewFloat(r.NormFloat64() * 1e3)
	case 2:
		var b strings.Builder
		for i := 0; i < r.Intn(12); i++ {
			b.WriteByte(byte('a' + r.Intn(26)))
		}
		return NewString(b.String())
	case 3:
		return NewBool(r.Intn(2) == 0)
	default:
		return Null
	}
}

// Property: Compare is antisymmetric and consistent with Equal for
// comparable pairs.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randValue(r, false), randValue(r, false)
		c1, err1 := Compare(a, b)
		c2, err2 := Compare(b, a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if c1 != -c2 {
			return false
		}
		if c1 == 0 && !(a.Equal(b)) {
			// NaN is the only permitted exception; Compare treats NaN
			// via float ordering which never returns 0 against non-NaN.
			return math.IsNaN(a.Float()) || math.IsNaN(b.Float())
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: values that are Equal have equal hashes.
func TestHashProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randValue(r, true)
		b := a
		if r.Intn(2) == 0 && a.Kind() == KindInt {
			b = NewFloat(float64(a.Int()))
			if int64(b.Float()) != a.Int() {
				b = a // not exactly representable; skip the cross-kind case
			}
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cast to BIGINT then back to DOUBLE preserves integral doubles.
func TestCastRoundTripProperty(t *testing.T) {
	f := func(n int32) bool {
		v := NewFloat(float64(n))
		i, err := Cast(v, BigInt)
		if err != nil {
			return false
		}
		back, err := Cast(i, Double)
		if err != nil {
			return false
		}
		return back.Float() == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseTypePredicates(t *testing.T) {
	for _, b := range []BaseType{SmallIntType, IntegerType, BigIntType, DoubleType} {
		if !b.IsNumeric() {
			t.Errorf("%v should be numeric", b)
		}
	}
	for _, b := range []BaseType{BooleanType, VarCharType, UnknownType} {
		if b.IsNumeric() {
			t.Errorf("%v should not be numeric", b)
		}
	}
	if !SmallIntType.IsInteger() || !IntegerType.IsInteger() || !BigIntType.IsInteger() {
		t.Error("integer predicate broken")
	}
	if DoubleType.IsInteger() || VarCharType.IsInteger() {
		t.Error("non-integers classified as integer")
	}
}

func TestAsFloatEdgeCases(t *testing.T) {
	if f, err := NewString(" 2.5 ").AsFloat(); err != nil || f != 2.5 {
		t.Errorf("AsFloat('2.5') = %v, %v", f, err)
	}
	if _, err := NewString("nope").AsFloat(); err == nil {
		t.Error("AsFloat('nope') should fail")
	}
	if f, err := NewBool(false).AsFloat(); err != nil || f != 0 {
		t.Errorf("AsFloat(false) = %v, %v", f, err)
	}
	if _, err := Null.AsFloat(); err == nil {
		t.Error("AsFloat(NULL) should fail")
	}
}

// A Row is a slice of Values, so the struct's size is what every table,
// join and wire conversion pays per cell.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("Value is %d bytes, want 32 (kind + one payload word + string)", got)
	}
}

// Package types implements the SQL value and type system shared by every
// layer of the integration server: the storage engine, the SQL query
// processor, the UDTF framework, the workflow containers, and the
// application-system function signatures.
//
// The design follows the subset of SQL:1999 exercised by the paper's
// prototype (DB2 UDB v7.1): exact numerics (SMALLINT, INTEGER, BIGINT),
// approximate numerics (DOUBLE), character strings (VARCHAR), BOOLEAN, and
// the NULL value. Values are immutable.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BaseType enumerates the SQL base types supported by the engine.
type BaseType uint8

// Supported SQL base types.
const (
	UnknownType BaseType = iota
	BooleanType
	SmallIntType
	IntegerType
	BigIntType
	DoubleType
	VarCharType
)

// String returns the SQL spelling of the base type.
func (b BaseType) String() string {
	switch b {
	case BooleanType:
		return "BOOLEAN"
	case SmallIntType:
		return "SMALLINT"
	case IntegerType:
		return "INTEGER"
	case BigIntType:
		return "BIGINT"
	case DoubleType:
		return "DOUBLE"
	case VarCharType:
		return "VARCHAR"
	default:
		return "UNKNOWN"
	}
}

// IsNumeric reports whether the base type is an exact or approximate numeric.
func (b BaseType) IsNumeric() bool {
	switch b {
	case SmallIntType, IntegerType, BigIntType, DoubleType:
		return true
	}
	return false
}

// IsInteger reports whether the base type is an exact integer numeric.
func (b BaseType) IsInteger() bool {
	switch b {
	case SmallIntType, IntegerType, BigIntType:
		return true
	}
	return false
}

// Type describes a SQL column or parameter type.
type Type struct {
	Base   BaseType
	Length int // declared length for VARCHAR(n); 0 means unbounded
}

// Convenience constructors for the common types.
var (
	Boolean  = Type{Base: BooleanType}
	SmallInt = Type{Base: SmallIntType}
	Integer  = Type{Base: IntegerType}
	BigInt   = Type{Base: BigIntType}
	Double   = Type{Base: DoubleType}
	VarChar  = Type{Base: VarCharType}
)

// VarCharN returns a VARCHAR type with a declared maximum length.
func VarCharN(n int) Type { return Type{Base: VarCharType, Length: n} }

// String returns the SQL spelling of the type, e.g. "VARCHAR(30)".
func (t Type) String() string {
	if t.Base == VarCharType && t.Length > 0 {
		return fmt.Sprintf("VARCHAR(%d)", t.Length)
	}
	return t.Base.String()
}

// ParseType parses a SQL type name such as "INT", "VARCHAR(20)" or
// "DOUBLE PRECISION" into a Type.
func ParseType(s string) (Type, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	var length int
	if i := strings.IndexByte(u, '('); i >= 0 {
		j := strings.IndexByte(u, ')')
		if j < i {
			return Type{}, fmt.Errorf("types: malformed type %q", s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(u[i+1 : j]))
		if err != nil {
			return Type{}, fmt.Errorf("types: malformed length in %q", s)
		}
		length = n
		u = strings.TrimSpace(u[:i])
	}
	switch u {
	case "BOOLEAN", "BOOL":
		return Boolean, nil
	case "SMALLINT":
		return SmallInt, nil
	case "INT", "INTEGER":
		return Integer, nil
	case "BIGINT", "LONG":
		return BigInt, nil
	case "DOUBLE", "DOUBLE PRECISION", "FLOAT", "REAL":
		return Double, nil
	case "VARCHAR", "CHAR", "CHARACTER VARYING", "CHARACTER":
		return Type{Base: VarCharType, Length: length}, nil
	default:
		return Type{}, fmt.Errorf("types: unknown type %q", s)
	}
}

// Kind enumerates the physical representations of a Value.
type Kind uint8

// Physical value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return "INVALID"
	}
}

// Value is an immutable SQL value. The zero Value is SQL NULL.
//
// The struct is 32 bytes: no two scalar payloads are ever live at once, so
// the int64, the float64 bits and the bool share one word. Rows are slices
// of Values, which makes this the unit every table, join and result pays.
type Value struct {
	kind Kind
	n    uint64 // KindInt: the int64; KindFloat: its IEEE-754 bits; KindBool: 0 or 1
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// NewFloat returns a double-precision value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// NewString returns a character-string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind returns the physical representation of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; valid only when Kind()==KindInt.
func (v Value) Int() int64 { return int64(v.n) }

// Float returns the float payload; valid only when Kind()==KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(v.n) }

// Str returns the string payload; valid only when Kind()==KindString.
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload; valid only when Kind()==KindBool.
func (v Value) Bool() bool { return v.n != 0 }

// AsInt coerces v to int64 where SQL permits (integers, floats with
// truncation, numeric strings, booleans as 0/1).
func (v Value) AsInt() (int64, error) {
	switch v.kind {
	case KindInt:
		return v.Int(), nil
	case KindFloat:
		f := v.Float()
		if math.IsNaN(f) || f > math.MaxInt64 || f < math.MinInt64 {
			return 0, fmt.Errorf("types: %v out of integer range", f)
		}
		return int64(f), nil
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("types: cannot convert %q to integer", v.s)
		}
		return n, nil
	case KindBool:
		if v.Bool() {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("types: cannot convert NULL to integer")
	}
}

// AsFloat coerces v to float64 where SQL permits.
func (v Value) AsFloat() (float64, error) {
	switch v.kind {
	case KindFloat:
		return v.Float(), nil
	case KindInt:
		return float64(v.Int()), nil
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, fmt.Errorf("types: cannot convert %q to double", v.s)
		}
		return f, nil
	case KindBool:
		if v.Bool() {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("types: cannot convert NULL to double")
	}
}

// AsString coerces v to its character representation.
func (v Value) AsString() (string, error) {
	if v.kind == KindNull {
		return "", fmt.Errorf("types: cannot convert NULL to string")
	}
	return v.Format(), nil
}

// AsBool coerces v to a boolean (non-zero numerics are true; the strings
// TRUE/FALSE, T/F, 1/0 are accepted case-insensitively).
func (v Value) AsBool() (bool, error) {
	switch v.kind {
	case KindBool:
		return v.Bool(), nil
	case KindInt:
		return v.Int() != 0, nil
	case KindFloat:
		return v.Float() != 0, nil
	case KindString:
		switch strings.ToUpper(strings.TrimSpace(v.s)) {
		case "TRUE", "T", "1", "YES", "Y":
			return true, nil
		case "FALSE", "F", "0", "NO", "N":
			return false, nil
		}
		return false, fmt.Errorf("types: cannot convert %q to boolean", v.s)
	default:
		return false, fmt.Errorf("types: cannot convert NULL to boolean")
	}
}

// Format renders v the way the interactive client prints result cells.
func (v Value) Format() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// String renders v as a SQL literal (strings quoted), for plan and AST dumps.
func (v Value) String() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.Format()
}

// Equal reports whether two values are identical (NULL equals NULL here;
// use Compare for SQL ternary semantics).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Numeric values of different kinds may still be equal (1 == 1.0).
		if isNumericKind(v.kind) && isNumericKind(o.kind) {
			c, err := Compare(v, o)
			return err == nil && c == 0
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindBool:
		return v.Bool() == o.Bool()
	case KindInt:
		return v.Int() == o.Int()
	case KindFloat:
		vf, of := v.Float(), o.Float()
		return vf == of || (math.IsNaN(vf) && math.IsNaN(of))
	case KindString:
		return v.s == o.s
	}
	return false
}

func isNumericKind(k Kind) bool { return k == KindInt || k == KindFloat }

// FNV-1a, 64 bit: the function hash/fnv implements.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a hash of v suitable for hash joins and grouping. Values that
// compare equal hash equally (integers hash via their float64 image only
// when they are not exactly representable both ways; we normalise integers
// and integral floats to the same image).
//
// It is FNV-1a over a kind tag followed by the payload bytes, computed
// inline: joins, grouping and index lookups call it once per row, so it
// must not allocate.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindBool:
		return fnvByte(fnvTag(1), v.n) // n is 0 or 1
	case KindInt:
		return hashNumeric(1, v.n)
	case KindFloat:
		// The upper bound is strict: float64(MaxInt64) rounds up to 2^63,
		// which int64() cannot hold (the conversion's result would differ
		// by platform).
		f := v.Float()
		if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return hashNumeric(1, uint64(int64(f)))
		}
		if f != f { // every NaN is one value, whatever its payload
			return hashNumeric(0, math.Float64bits(math.NaN()))
		}
		return hashNumeric(0, v.n)
	case KindString:
		h := fnvTag(3)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, uint64(v.s[i]))
		}
		return h
	default: // KindNull
		return fnvTag(0)
	}
}

// fnvTag starts a hash with the byte that names the value's kind.
func fnvTag(tag uint64) uint64 { return fnvByte(fnvOffset64, tag) }

func fnvByte(h, b uint64) uint64 { return (h ^ b) * fnvPrime64 }

// hashNumeric hashes the numeric tag 2, the integral flag (1: word is an
// int64; 0: word is the IEEE-754 bits of a non-integral double) and the
// word's eight bytes, least significant first.
func hashNumeric(integral, word uint64) uint64 {
	h := fnvByte(fnvTag(2), integral)
	for k := 0; k < 64; k += 8 {
		h = fnvByte(h, word>>k&0xff)
	}
	return h
}

// ErrNullCompare is returned by Compare when either operand is NULL; SQL
// comparisons with NULL yield UNKNOWN, which callers map to "no match".
var ErrNullCompare = fmt.Errorf("types: comparison with NULL is UNKNOWN")

// Compare orders two values: -1, 0, +1. Numeric kinds compare numerically
// across representations; NaN equals itself and orders above every other
// number, as in PostgreSQL. Comparing NULL with anything returns
// ErrNullCompare; comparing incompatible kinds returns an error.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, ErrNullCompare
	}
	if isNumericKind(a.kind) && isNumericKind(b.kind) {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.Int() < b.Int():
				return -1, nil
			case a.Int() > b.Int():
				return 1, nil
			default:
				return 0, nil
			}
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch aNaN, bNaN := af != af, bf != bf; {
		case af < bf || bNaN && !aNaN:
			return -1, nil
		case af > bf || aNaN && !bNaN:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindBool:
		switch {
		case a.Bool() == b.Bool():
			return 0, nil
		case !a.Bool():
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("types: cannot compare %s values", a.kind)
}

// Cast converts v to target type t, applying SQL conversion rules:
// numeric widening/narrowing with range checks, string parsing/formatting,
// and VARCHAR(n) truncation to the declared length. NULL casts to NULL.
func Cast(v Value, t Type) (Value, error) {
	if v.kind == KindNull {
		return Null, nil
	}
	switch t.Base {
	case BooleanType:
		b, err := v.AsBool()
		if err != nil {
			return Null, err
		}
		return NewBool(b), nil
	case SmallIntType:
		n, err := v.AsInt()
		if err != nil {
			return Null, err
		}
		if n < math.MinInt16 || n > math.MaxInt16 {
			return Null, fmt.Errorf("types: %d out of SMALLINT range", n)
		}
		return NewInt(n), nil
	case IntegerType:
		n, err := v.AsInt()
		if err != nil {
			return Null, err
		}
		if n < math.MinInt32 || n > math.MaxInt32 {
			return Null, fmt.Errorf("types: %d out of INTEGER range", n)
		}
		return NewInt(n), nil
	case BigIntType:
		n, err := v.AsInt()
		if err != nil {
			return Null, err
		}
		return NewInt(n), nil
	case DoubleType:
		f, err := v.AsFloat()
		if err != nil {
			return Null, err
		}
		return NewFloat(f), nil
	case VarCharType:
		s, err := v.AsString()
		if err != nil {
			return Null, err
		}
		if t.Length > 0 && len(s) > t.Length {
			s = s[:t.Length]
		}
		return NewString(s), nil
	default:
		return Null, fmt.Errorf("types: cannot cast to %s", t)
	}
}

// TypeOf returns the natural SQL type of a value's physical representation.
func TypeOf(v Value) Type {
	switch v.kind {
	case KindBool:
		return Boolean
	case KindInt:
		return BigInt
	case KindFloat:
		return Double
	case KindString:
		return VarChar
	default:
		return Type{}
	}
}

// Conforms reports whether value v may be stored in a column of type t
// without an explicit cast (NULL conforms to every type).
func Conforms(v Value, t Type) bool {
	if v.kind == KindNull {
		return true
	}
	switch t.Base {
	case BooleanType:
		return v.kind == KindBool
	case SmallIntType, IntegerType, BigIntType:
		return v.kind == KindInt
	case DoubleType:
		return v.kind == KindFloat || v.kind == KindInt
	case VarCharType:
		return v.kind == KindString
	}
	return false
}

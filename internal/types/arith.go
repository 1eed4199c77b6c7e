package types

import (
	"fmt"
	"math"
)

// Arithmetic over SQL values. Integer op integer stays exact (with overflow
// detection); any double operand promotes the operation to double. NULL
// propagates: any NULL operand yields NULL.

// Add returns a + b.
func Add(a, b Value) (Value, error) { return arith(a, b, "+") }

// Sub returns a - b.
func Sub(a, b Value) (Value, error) { return arith(a, b, "-") }

// Mul returns a * b.
func Mul(a, b Value) (Value, error) { return arith(a, b, "*") }

// Div returns a / b; integer division truncates, division by zero errors.
func Div(a, b Value) (Value, error) { return arith(a, b, "/") }

// Mod returns a % b for integer operands.
func Mod(a, b Value) (Value, error) { return arith(a, b, "%") }

// Neg returns -a.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		if a.Int() == math.MinInt64 {
			return Null, fmt.Errorf("types: integer overflow negating %d", a.Int())
		}
		return NewInt(-a.Int()), nil
	case KindFloat:
		return NewFloat(-a.Float()), nil
	default:
		return Null, fmt.Errorf("types: cannot negate %s value", a.kind)
	}
}

// Concat returns the string concatenation a || b.
func Concat(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	as, err := a.AsString()
	if err != nil {
		return Null, err
	}
	bs, err := b.AsString()
	if err != nil {
		return Null, err
	}
	return NewString(as + bs), nil
}

func arith(a, b Value, op string) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !isNumericKind(a.kind) || !isNumericKind(b.kind) {
		return Null, fmt.Errorf("types: operator %s requires numeric operands, got %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		return intArith(a.Int(), b.Int(), op)
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch op {
	case "+":
		return NewFloat(af + bf), nil
	case "-":
		return NewFloat(af - bf), nil
	case "*":
		return NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		return NewFloat(af / bf), nil
	case "%":
		if bf == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		return NewFloat(math.Mod(af, bf)), nil
	}
	return Null, fmt.Errorf("types: unknown operator %q", op)
}

func intArith(x, y int64, op string) (Value, error) {
	switch op {
	case "+":
		s := x + y
		if (s > x) != (y > 0) {
			return Null, fmt.Errorf("types: integer overflow in %d + %d", x, y)
		}
		return NewInt(s), nil
	case "-":
		d := x - y
		if (d < x) != (y > 0) {
			return Null, fmt.Errorf("types: integer overflow in %d - %d", x, y)
		}
		return NewInt(d), nil
	case "*":
		if x != 0 && y != 0 {
			p := x * y
			if p/y != x || (x == -1 && y == math.MinInt64) || (y == -1 && x == math.MinInt64) {
				return Null, fmt.Errorf("types: integer overflow in %d * %d", x, y)
			}
			return NewInt(p), nil
		}
		return NewInt(0), nil
	case "/":
		if y == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		if x == math.MinInt64 && y == -1 {
			return Null, fmt.Errorf("types: integer overflow in %d / %d", x, y)
		}
		return NewInt(x / y), nil
	case "%":
		if y == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		if x == math.MinInt64 && y == -1 {
			return NewInt(0), nil
		}
		return NewInt(x % y), nil
	}
	return Null, fmt.Errorf("types: unknown operator %q", op)
}

package exec

import (
	"testing"

	"fedwf/internal/types"
)

func evalOK(t *testing.T, e Expr, row types.Row) types.Value {
	t.Helper()
	v, err := e.Eval(row, nil)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestConstAndCol(t *testing.T) {
	row := types.Row{types.NewInt(1), types.NewString("x")}
	if v := evalOK(t, Const{V: types.NewInt(7)}, row); v.Int() != 7 {
		t.Errorf("const = %v", v)
	}
	if v := evalOK(t, Col{Idx: 1, Name: "s"}, row); v.Str() != "x" {
		t.Errorf("col = %v", v)
	}
	if _, err := (Col{Idx: 5, Name: "out"}).Eval(row, nil); err == nil {
		t.Error("out-of-range column read succeeded")
	}
	if (Col{Idx: 2, Name: "c"}).String() != "c#2" {
		t.Error("Col.String format")
	}
}

// TestParamReadsTheBoundRow: a Param reads the bound parameter row, never
// the row it is evaluated against, and reports a position past its end.
func TestParamReadsTheBoundRow(t *testing.T) {
	row := types.Row{types.NewInt(1)}
	params := types.Row{types.NewString("a"), types.NewInt(9)}
	v, err := (Param{Idx: 1, Name: "p"}).Eval(row, params)
	if err != nil || v.Int() != 9 {
		t.Errorf("param = %v, %v", v, err)
	}
	sum := &Bin{Op: "+", L: Col{Idx: 0, Name: "c"}, R: Param{Idx: 1, Name: "p"}}
	if v, err := sum.Eval(row, params); err != nil || v.Int() != 10 {
		t.Errorf("c + p = %v, %v", v, err)
	}
	if _, err := (Param{Idx: 2, Name: "q"}).Eval(row, params); err == nil {
		t.Error("out-of-range parameter read succeeded")
	}
	if _, err := (Param{Idx: 0, Name: "q"}).Eval(row, nil); err == nil {
		t.Error("parameter read without a bound row succeeded")
	}
	if (Param{Idx: 1, Name: "p"}).String() != ":p#1" {
		t.Error("Param.String format")
	}
}

func TestUnaryExpr(t *testing.T) {
	if v := evalOK(t, &Unary{Op: "-", X: Const{V: types.NewInt(3)}}, nil); v.Int() != -3 {
		t.Errorf("neg = %v", v)
	}
	if v := evalOK(t, &Unary{Op: "NOT", X: Const{V: types.NewBool(true)}}, nil); v.Bool() {
		t.Errorf("not = %v", v)
	}
	if v := evalOK(t, &Unary{Op: "NOT", X: Const{V: types.Null}}, nil); !v.IsNull() {
		t.Errorf("NOT NULL = %v", v)
	}
	if _, err := (&Unary{Op: "??", X: Const{V: types.NewInt(1)}}).Eval(nil, nil); err == nil {
		t.Error("unknown unary op accepted")
	}
	if _, err := (&Unary{Op: "NOT", X: Const{V: types.NewString("zz")}}).Eval(nil, nil); err == nil {
		t.Error("NOT on non-boolean accepted")
	}
}

func TestBinArithmeticAndComparison(t *testing.T) {
	two, three := Const{V: types.NewInt(2)}, Const{V: types.NewInt(3)}
	cases := []struct {
		op   string
		want int64
	}{{"+", 5}, {"-", -1}, {"*", 6}, {"/", 0}, {"%", 2}}
	for _, c := range cases {
		v := evalOK(t, &Bin{Op: c.op, L: two, R: three}, nil)
		if v.Int() != c.want {
			t.Errorf("2 %s 3 = %v, want %d", c.op, v, c.want)
		}
	}
	cmp := []struct {
		op   string
		want bool
	}{{"=", false}, {"<>", true}, {"<", true}, {"<=", true}, {">", false}, {">=", false}}
	for _, c := range cmp {
		v := evalOK(t, &Bin{Op: c.op, L: two, R: three}, nil)
		if v.Bool() != c.want {
			t.Errorf("2 %s 3 = %v, want %v", c.op, v, c.want)
		}
	}
	// NULL comparisons are UNKNOWN (NULL).
	v := evalOK(t, &Bin{Op: "=", L: two, R: Const{V: types.Null}}, nil)
	if !v.IsNull() {
		t.Errorf("2 = NULL -> %v", v)
	}
	v = evalOK(t, &Bin{Op: "||", L: Const{V: types.NewString("a")}, R: Const{V: types.NewString("b")}}, nil)
	if v.Str() != "ab" {
		t.Errorf("concat = %v", v)
	}
	if _, err := (&Bin{Op: "??", L: two, R: three}).Eval(nil, nil); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := (&Bin{Op: "=", L: two, R: Const{V: types.NewString("x")}}).Eval(nil, nil); err == nil {
		t.Error("incomparable operands accepted")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	T := Const{V: types.NewBool(true)}
	F := Const{V: types.NewBool(false)}
	N := Const{V: types.Null}
	type tc struct {
		op   string
		l, r Expr
		want string // "T", "F", "N"
	}
	cases := []tc{
		{"AND", T, T, "T"}, {"AND", T, F, "F"}, {"AND", F, N, "F"}, {"AND", N, F, "F"},
		{"AND", T, N, "N"}, {"AND", N, N, "N"},
		{"OR", F, F, "F"}, {"OR", T, N, "T"}, {"OR", N, T, "T"},
		{"OR", F, N, "N"}, {"OR", N, N, "N"},
	}
	for _, c := range cases {
		v := evalOK(t, &Bin{Op: c.op, L: c.l, R: c.r}, nil)
		got := "N"
		if !v.IsNull() {
			if v.Bool() {
				got = "T"
			} else {
				got = "F"
			}
		}
		if got != c.want {
			t.Errorf("%s %s %s = %s, want %s", c.l, c.op, c.r, got, c.want)
		}
	}
	// Short-circuit: F AND err-expr must not evaluate the right side.
	bad := Col{Idx: 99, Name: "boom"}
	if v := evalOK(t, &Bin{Op: "AND", L: F, R: bad}, types.Row{}); v.Bool() {
		t.Error("short-circuit AND broken")
	}
	if v := evalOK(t, &Bin{Op: "OR", L: T, R: bad}, types.Row{}); !v.Bool() {
		t.Error("short-circuit OR broken")
	}
	// Non-boolean operands error out.
	if _, err := (&Bin{Op: "AND", L: Const{V: types.NewString("x")}, R: T}).Eval(nil, nil); err == nil {
		t.Error("AND on string accepted")
	}
	if _, err := (&Bin{Op: "AND", L: T, R: Const{V: types.NewString("x")}}).Eval(nil, nil); err == nil {
		t.Error("AND on string accepted (right)")
	}
}

func TestCastIsNullBetween(t *testing.T) {
	v := evalOK(t, &Cast{X: Const{V: types.NewString("12")}, Type: types.Integer}, nil)
	if v.Int() != 12 {
		t.Errorf("cast = %v", v)
	}
	if v := evalOK(t, IsNull{X: Const{V: types.Null}}, nil); !v.Bool() {
		t.Error("IS NULL failed")
	}
	if v := evalOK(t, IsNull{X: Const{V: types.NewInt(1)}, Not: true}, nil); !v.Bool() {
		t.Error("IS NOT NULL failed")
	}
	one, five, three := Const{V: types.NewInt(1)}, Const{V: types.NewInt(5)}, Const{V: types.NewInt(3)}
	if v := evalOK(t, &Between{X: three, Lo: one, Hi: five}, nil); !v.Bool() {
		t.Error("BETWEEN failed")
	}
	if v := evalOK(t, &Between{X: three, Lo: one, Hi: five, Not: true}, nil); v.Bool() {
		t.Error("NOT BETWEEN failed")
	}
	if v := evalOK(t, &Between{X: three, Lo: Const{V: types.Null}, Hi: five}, nil); !v.IsNull() {
		t.Error("BETWEEN with NULL bound must be UNKNOWN")
	}
}

func TestInExpr(t *testing.T) {
	x := Const{V: types.NewInt(2)}
	list := []Expr{Const{V: types.NewInt(1)}, Const{V: types.NewInt(2)}}
	if v := evalOK(t, &In{X: x, List: list}, nil); !v.Bool() {
		t.Error("IN failed")
	}
	if v := evalOK(t, &In{X: x, List: list, Not: true}, nil); v.Bool() {
		t.Error("NOT IN failed")
	}
	// No match but a NULL element: UNKNOWN.
	listN := []Expr{Const{V: types.NewInt(9)}, Const{V: types.Null}}
	if v := evalOK(t, &In{X: x, List: listN}, nil); !v.IsNull() {
		t.Error("IN with NULL element must be UNKNOWN when unmatched")
	}
	// Match despite NULL element: TRUE.
	listM := []Expr{Const{V: types.Null}, Const{V: types.NewInt(2)}}
	if v := evalOK(t, &In{X: x, List: listM}, nil); !v.Bool() {
		t.Error("IN should match past NULL elements")
	}
}

func TestLikeExpr(t *testing.T) {
	cases := []struct {
		s, p  string
		match bool
	}{
		{"bolt", "bolt", true},
		{"bolt", "bo%", true},
		{"bolt", "%lt", true},
		{"bolt", "b_lt", true},
		{"bolt", "b_t", false},
		{"bolt", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "a%c%", true},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%ss%pp%", true},
		{"mississippi", "%ss%xx%", false},
	}
	for _, c := range cases {
		v := evalOK(t, &Like{X: Const{V: types.NewString(c.s)}, Pattern: Const{V: types.NewString(c.p)}}, nil)
		if v.Bool() != c.match {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, v.Bool(), c.match)
		}
	}
	if v := evalOK(t, &Like{X: Const{V: types.Null}, Pattern: Const{V: types.NewString("%")}}, nil); !v.IsNull() {
		t.Error("NULL LIKE must be UNKNOWN")
	}
}

func TestCaseExpr(t *testing.T) {
	c := &Case{
		Whens: []struct{ Cond, Result Expr }{
			{Const{V: types.NewBool(false)}, Const{V: types.NewString("a")}},
			{Const{V: types.Null}, Const{V: types.NewString("b")}}, // UNKNOWN arm skipped
			{Const{V: types.NewBool(true)}, Const{V: types.NewString("c")}},
		},
		Else: Const{V: types.NewString("e")},
	}
	if v := evalOK(t, c, nil); v.Str() != "c" {
		t.Errorf("case = %v", v)
	}
	noMatch := &Case{Whens: []struct{ Cond, Result Expr }{
		{Const{V: types.NewBool(false)}, Const{V: types.NewString("a")}},
	}}
	if v := evalOK(t, noMatch, nil); !v.IsNull() {
		t.Errorf("case without else = %v", v)
	}
}

func TestScalarCallAndLookup(t *testing.T) {
	fn, err := LookupScalar("upper", 1)
	if err != nil {
		t.Fatal(err)
	}
	call := &ScalarCall{Name: "UPPER", Fn: fn, Args: []Expr{Const{V: types.NewString("abc")}}}
	if v := evalOK(t, call, nil); v.Str() != "ABC" {
		t.Errorf("UPPER = %v", v)
	}
	if _, err := LookupScalar("nosuch", 1); err == nil {
		t.Error("unknown scalar accepted")
	}
	if _, err := LookupScalar("UPPER", 2); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := LookupScalar("COALESCE", 0); err == nil {
		t.Error("variadic minimum not enforced")
	}
	if _, err := LookupScalar("COALESCE", 9); err != nil {
		t.Error("variadic maximum wrongly enforced")
	}
}

func TestScalarBuiltins(t *testing.T) {
	eval := func(name string, args ...types.Value) (types.Value, error) {
		fn, err := LookupScalar(name, len(args))
		if err != nil {
			t.Fatalf("lookup %s/%d: %v", name, len(args), err)
		}
		return fn(args)
	}
	mustEval := func(name string, args ...types.Value) types.Value {
		v, err := eval(name, args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	if v := mustEval("BIGINT", types.NewInt(5)); v.Int() != 5 {
		t.Error("BIGINT")
	}
	if v := mustEval("LOWER", types.NewString("AbC")); v.Str() != "abc" {
		t.Error("LOWER")
	}
	if v := mustEval("TRIM", types.NewString("  x ")); v.Str() != "x" {
		t.Error("TRIM")
	}
	if v := mustEval("LTRIM", types.NewString("  x ")); v.Str() != "x " {
		t.Error("LTRIM")
	}
	if v := mustEval("RTRIM", types.NewString(" x  ")); v.Str() != " x" {
		t.Error("RTRIM")
	}
	if v := mustEval("LENGTH", types.NewString("abcd")); v.Int() != 4 {
		t.Error("LENGTH")
	}
	if v := mustEval("LENGTH", types.Null); !v.IsNull() {
		t.Error("LENGTH(NULL)")
	}
	if v := mustEval("SUBSTR", types.NewString("purchase"), types.NewInt(4)); v.Str() != "chase" {
		t.Error("SUBSTR/2:", v.Str())
	}
	if v := mustEval("SUBSTR", types.NewString("purchase"), types.NewInt(1), types.NewInt(4)); v.Str() != "purc" {
		t.Error("SUBSTR/3:", v.Str())
	}
	if v := mustEval("SUBSTR", types.NewString("ab"), types.NewInt(9)); v.Str() != "" {
		t.Error("SUBSTR past end")
	}
	if v := mustEval("SUBSTR", types.NewString("ab"), types.NewInt(-3)); v.Str() != "ab" {
		t.Error("SUBSTR clamps start")
	}
	if _, err := eval("SUBSTR", types.NewString("ab"), types.NewInt(1), types.NewInt(-1)); err == nil {
		t.Error("SUBSTR negative length accepted")
	}
	if v := mustEval("CONCAT", types.NewString("a"), types.NewString("b"), types.NewString("c")); v.Str() != "abc" {
		t.Error("CONCAT")
	}
	if v := mustEval("ABS", types.NewInt(-9)); v.Int() != 9 {
		t.Error("ABS int")
	}
	if v := mustEval("ABS", types.NewFloat(-1.5)); v.Float() != 1.5 {
		t.Error("ABS float")
	}
	if _, err := eval("ABS", types.NewString("x")); err == nil {
		t.Error("ABS string accepted")
	}
	if v := mustEval("MOD", types.NewInt(7), types.NewInt(3)); v.Int() != 1 {
		t.Error("MOD")
	}
	if v := mustEval("ROUND", types.NewFloat(2.567), types.NewInt(1)); v.Float() != 2.6 {
		t.Error("ROUND/2:", v.Float())
	}
	if v := mustEval("ROUND", types.NewFloat(2.5)); v.Float() != 3 {
		t.Error("ROUND/1")
	}
	if v := mustEval("FLOOR", types.NewFloat(2.9)); v.Float() != 2 {
		t.Error("FLOOR")
	}
	if v := mustEval("CEIL", types.NewFloat(2.1)); v.Float() != 3 {
		t.Error("CEIL")
	}
	if v := mustEval("SQRT", types.NewFloat(9)); v.Float() != 3 {
		t.Error("SQRT")
	}
	if _, err := eval("SQRT", types.NewFloat(-1)); err == nil {
		t.Error("SQRT negative accepted")
	}
	if v := mustEval("COALESCE", types.Null, types.Null, types.NewInt(4)); v.Int() != 4 {
		t.Error("COALESCE")
	}
	if v := mustEval("COALESCE", types.Null); !v.IsNull() {
		t.Error("COALESCE all NULL")
	}
	if v := mustEval("NULLIF", types.NewInt(3), types.NewInt(3)); !v.IsNull() {
		t.Error("NULLIF equal")
	}
	if v := mustEval("NULLIF", types.NewInt(3), types.NewInt(4)); v.Int() != 3 {
		t.Error("NULLIF unequal")
	}
	if v := mustEval("NULLIF", types.NewInt(3), types.Null); v.Int() != 3 {
		t.Error("NULLIF with NULL")
	}
	if v := mustEval("LEAST", types.NewInt(5), types.NewInt(2), types.NewInt(9)); v.Int() != 2 {
		t.Error("LEAST")
	}
	if v := mustEval("GREATEST", types.NewInt(5), types.NewInt(2), types.NewInt(9)); v.Int() != 9 {
		t.Error("GREATEST")
	}
	if v := mustEval("GREATEST", types.NewInt(5), types.Null); !v.IsNull() {
		t.Error("GREATEST with NULL")
	}
}

func TestIsAggregateName(t *testing.T) {
	for _, n := range []string{"count", "SUM", "Avg", "MIN", "max"} {
		if !IsAggregateName(n) {
			t.Errorf("%s not recognised as aggregate", n)
		}
	}
	if IsAggregateName("UPPER") {
		t.Error("UPPER is not an aggregate")
	}
}

func TestTruthy(t *testing.T) {
	if ok, err := Truthy(types.Null); err != nil || ok {
		t.Error("NULL must not match")
	}
	if ok, err := Truthy(types.NewBool(true)); err != nil || !ok {
		t.Error("TRUE must match")
	}
	if _, err := Truthy(types.NewString("zz")); err == nil {
		t.Error("non-boolean truthiness accepted")
	}
}

func TestExprStrings(t *testing.T) {
	exprs := []Expr{
		&Bin{Op: "+", L: Const{V: types.NewInt(1)}, R: Const{V: types.NewInt(2)}},
		&Unary{Op: "NOT", X: Const{V: types.NewBool(true)}},
		&Cast{X: Const{V: types.NewInt(1)}, Type: types.BigInt},
		IsNull{X: Const{V: types.Null}},
		IsNull{X: Const{V: types.Null}, Not: true},
		&Between{X: Const{V: types.NewInt(1)}, Lo: Const{V: types.NewInt(0)}, Hi: Const{V: types.NewInt(2)}, Not: true},
		&In{X: Const{V: types.NewInt(1)}, List: []Expr{Const{V: types.NewInt(2)}}, Not: true},
		&Like{X: Const{V: types.NewString("a")}, Pattern: Const{V: types.NewString("%")}, Not: true},
		&Case{Whens: []struct{ Cond, Result Expr }{{Const{V: types.NewBool(true)}, Const{V: types.NewInt(1)}}}, Else: Const{V: types.NewInt(0)}},
		&ScalarCall{Name: "UPPER", Args: []Expr{Const{V: types.NewString("x")}}},
	}
	for _, e := range exprs {
		if e.String() == "" {
			t.Errorf("%T renders empty", e)
		}
	}
}

package types

import (
	"strings"
	"testing"
)

func suppSchema() Schema {
	return Schema{
		{Name: "SupplierNo", Type: Integer},
		{Name: "Name", Type: VarCharN(30)},
		{Name: "Reliability", Type: Double},
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := suppSchema()
	if i := s.ColumnIndex("name"); i != 1 {
		t.Errorf("ColumnIndex(name) = %d", i)
	}
	if i := s.ColumnIndex("NAME"); i != 1 {
		t.Errorf("ColumnIndex(NAME) = %d", i)
	}
	if i := s.ColumnIndex("absent"); i != -1 {
		t.Errorf("ColumnIndex(absent) = %d", i)
	}
}

// TestLookupFold: LookupFold finds what an index at strings.ToLower(name)
// finds, for ASCII names of any case, non-ASCII names, and names longer
// than its stack buffer, and an ASCII lookup does not allocate.
func TestLookupFold(t *testing.T) {
	long := strings.Repeat("Ab", 40)
	m := map[string]int{
		"getquality":            1,
		"straße":                2,
		"ärger":                 3,
		strings.ToLower(long):   4,
		strings.Repeat("x", 64): 5,
		"":                      6,
	}
	for _, name := range []string{
		"GetQuality", "getquality", "GETQUALITY", "GetQual", "getqualityx",
		"STRAßE", "straße", "Ärger", "ÄRGER", "ärger", "Ǆ",
		long, strings.ToUpper(long), long[:64], strings.Repeat("X", 64), strings.Repeat("X", 65),
		"", "nope",
	} {
		want, wantOK := m[strings.ToLower(name)]
		got, ok := LookupFold(m, name)
		if got != want || ok != wantOK {
			t.Errorf("LookupFold(%q) = %d, %v; strings.ToLower lookup = %d, %v", name, got, ok, want, wantOK)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { LookupFold(m, "GetQuality") }); allocs != 0 {
		t.Errorf("LookupFold of an ASCII name allocates %.0f times, want 0", allocs)
	}
}

func TestSchemaStringAndNames(t *testing.T) {
	s := suppSchema()
	want := "(SupplierNo INTEGER, Name VARCHAR(30), Reliability DOUBLE)"
	if got := s.String(); got != want {
		t.Errorf("Schema.String() = %q, want %q", got, want)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "SupplierNo" {
		t.Errorf("Names() = %v", names)
	}
}

func TestSchemaClone(t *testing.T) {
	s := suppSchema()
	c := s.Clone()
	c[0].Name = "Changed"
	if s[0].Name != "SupplierNo" {
		t.Error("Clone must not alias")
	}
}

func TestRowValidateAndCoerce(t *testing.T) {
	s := suppSchema()
	good := Row{NewInt(1), NewString("ACME"), NewFloat(0.9)}
	if err := good.Validate(s); err != nil {
		t.Errorf("Validate(good): %v", err)
	}
	short := Row{NewInt(1)}
	if err := short.Validate(s); err == nil {
		t.Error("Validate(short row) should fail")
	}
	bad := Row{NewString("x"), NewString("ACME"), NewFloat(0.9)}
	if err := bad.Validate(s); err == nil {
		t.Error("Validate(bad type) should fail")
	}
	co, err := CoerceRow(Row{NewString("7"), NewInt(3), NewInt(1)}, s)
	if err != nil {
		t.Fatalf("CoerceRow: %v", err)
	}
	if co[0].Int() != 7 || co[1].Str() != "3" || co[2].Float() != 1 {
		t.Errorf("CoerceRow = %v", co)
	}
	if _, err := CoerceRow(Row{NewString("x"), NewInt(3), NewInt(1)}, s); err == nil {
		t.Error("CoerceRow with unparsable int should fail")
	}
	if _, err := CoerceRow(Row{NewInt(1)}, s); err == nil {
		t.Error("CoerceRow with arity mismatch should fail")
	}
}

func TestRowCloneEqualString(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
	if !r.Equal(Row{NewInt(1), NewString("a")}) {
		t.Error("Equal rows not equal")
	}
	if r.Equal(Row{NewInt(1)}) {
		t.Error("rows of different arity must differ")
	}
	if r.Equal(Row{NewInt(1), NewString("b")}) {
		t.Error("different rows must differ")
	}
	if got := r.String(); got != "[1, 'a']" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestTableAppendAndString(t *testing.T) {
	tab := NewTable(Schema{{Name: "No", Type: Integer}, {Name: "Name", Type: VarChar}})
	if err := tab.Append(Row{NewInt(1), NewString("bolt")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	tab.MustAppend(Row{NewInt(2), NewString("nut")})
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
	if err := tab.Append(Row{NewString("x"), NewString("y")}); err == nil {
		t.Error("Append with wrong type should fail")
	}
	out := tab.String()
	for _, want := range []string{"No", "Name", "bolt", "nut", "--"} {
		if !strings.Contains(out, want) {
			t.Errorf("table rendering missing %q:\n%s", want, out)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic on bad row")
		}
	}()
	tab.MustAppend(Row{NewString("x")})
}

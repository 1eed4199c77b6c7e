package appsys

import (
	"context"
	"testing"

	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func call(t *testing.T, reg *Registry, system, fn string, args ...types.Value) *types.Table {
	t.Helper()
	tab, err := reg.CallContext(context.Background(), simlat.Free(), system, fn, args)
	if err != nil {
		t.Fatalf("%s.%s: %v", system, fn, err)
	}
	return tab
}

func TestScenarioSystems(t *testing.T) {
	reg := MustBuildScenario()
	got := reg.Systems()
	want := []string{ProductData, Purchasing, StockKeeping}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Systems = %v", got)
	}
	sys, err := reg.System(StockKeeping)
	if err != nil {
		t.Fatal(err)
	}
	fns := sys.Functions()
	if len(fns) != 2 || fns[0] != "GetNumber" || fns[1] != "GetQuality" {
		t.Errorf("stock functions = %v", fns)
	}
}

func TestGetQualityAndReliability(t *testing.T) {
	reg := MustBuildScenario()
	tab := call(t, reg, StockKeeping, "GetQuality", types.NewInt(3))
	if tab.Len() != 1 || tab.Rows[0][0].Int() != int64(SupplierQuality(3)) {
		t.Errorf("GetQuality(3):\n%s", tab)
	}
	tab = call(t, reg, Purchasing, "GetReliability", types.NewInt(3))
	if tab.Len() != 1 || tab.Rows[0][0].Int() != int64(SupplierReliability(3)) {
		t.Errorf("GetReliability(3):\n%s", tab)
	}
	// Unknown supplier yields an empty table, not an error.
	tab = call(t, reg, StockKeeping, "GetQuality", types.NewInt(999))
	if tab.Len() != 0 {
		t.Errorf("GetQuality(999):\n%s", tab)
	}
}

func TestGetSupplierNoAndCompNo(t *testing.T) {
	reg := MustBuildScenario()
	tab := call(t, reg, Purchasing, "GetSupplierNo", types.NewString("Supplier7"))
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 7 {
		t.Errorf("GetSupplierNo:\n%s", tab)
	}
	tab = call(t, reg, Purchasing, "GetSupplierNo", types.NewString("MegaParts"))
	if tab.Len() != 1 || tab.Rows[0][0].Int() != SpecialSupplier {
		t.Errorf("GetSupplierNo(MegaParts):\n%s", tab)
	}
	tab = call(t, reg, ProductData, "GetCompNo", types.NewString("washer"))
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 3 {
		t.Errorf("GetCompNo(washer):\n%s", tab)
	}
}

func TestGetGradeAndDecidePurchase(t *testing.T) {
	reg := MustBuildScenario()
	tab := call(t, reg, Purchasing, "GetGrade", types.NewInt(80), types.NewInt(60))
	if tab.Rows[0][0].Int() != 70 {
		t.Errorf("GetGrade = %v", tab.Rows[0])
	}
	tab = call(t, reg, Purchasing, "DecidePurchase", types.NewInt(70), types.NewInt(3))
	if tab.Rows[0][0].Str() != "YES" {
		t.Errorf("DecidePurchase high grade = %v", tab.Rows[0])
	}
	tab = call(t, reg, Purchasing, "DecidePurchase", types.NewInt(40), types.NewInt(3))
	if tab.Rows[0][0].Str() != "NO" {
		t.Errorf("DecidePurchase low grade = %v", tab.Rows[0])
	}
	tab = call(t, reg, Purchasing, "DecidePurchase", types.NewInt(90), types.NewInt(9999))
	if tab.Rows[0][0].Str() != "NO" {
		t.Errorf("DecidePurchase invalid component = %v", tab.Rows[0])
	}
}

func TestGetNumberAndStockSeed(t *testing.T) {
	reg := MustBuildScenario()
	// Find a stocked pair per the seeding rule.
	s, c := 1, 2 // (1+2)%3 == 0
	if !InStock(s, c) {
		t.Fatal("seeding rule changed")
	}
	tab := call(t, reg, StockKeeping, "GetNumber", types.NewInt(int64(s)), types.NewInt(int64(c)))
	if tab.Len() != 1 || tab.Rows[0][0].Int() != int64(StockNumber(s, c)) {
		t.Errorf("GetNumber:\n%s", tab)
	}
	tab = call(t, reg, StockKeeping, "GetNumber", types.NewInt(1), types.NewInt(3))
	if tab.Len() != 0 {
		t.Errorf("unstocked pair returned rows:\n%s", tab)
	}
}

func TestGetSubCompNo(t *testing.T) {
	reg := MustBuildScenario()
	tab := call(t, reg, ProductData, "GetSubCompNo", types.NewInt(5))
	if tab.Len() != 2 || tab.Rows[0][0].Int() != 10 || tab.Rows[1][0].Int() != 11 {
		t.Errorf("GetSubCompNo(5):\n%s", tab)
	}
	tab = call(t, reg, ProductData, "GetSubCompNo", types.NewInt(NumComponents))
	if tab.Len() != 0 {
		t.Errorf("leaf component has subcomponents:\n%s", tab)
	}
}

func TestGetNextCompNameIteration(t *testing.T) {
	reg := MustBuildScenario()
	cursor := int64(0)
	var names []string
	for i := 0; i < NumComponents+5; i++ {
		tab := call(t, reg, ProductData, "GetNextCompName", types.NewInt(cursor))
		if tab.Len() == 0 {
			break
		}
		names = append(names, tab.Rows[0][0].Str())
		cursor = tab.Rows[0][1].Int()
		if tab.Rows[0][2].Int() == 0 {
			break
		}
	}
	if len(names) != NumComponents {
		t.Fatalf("iterated %d names, want %d", len(names), NumComponents)
	}
	if names[0] != "bolt" || names[NumComponents-1] != ComponentName(NumComponents) {
		t.Errorf("names = %v", names)
	}
}

func TestGetCompSupp4Discount(t *testing.T) {
	reg := MustBuildScenario()
	tab := call(t, reg, Purchasing, "GetCompSupp4Discount", types.NewInt(25))
	if tab.Len() == 0 {
		t.Fatal("no discounted components found")
	}
	for _, r := range tab.Rows {
		s, c := int(r[1].Int()), int(r[0].Int())
		if (s*7+c)%30 < 25 {
			t.Errorf("row %v violates discount threshold", r)
		}
	}
}

func TestCallValidation(t *testing.T) {
	reg := MustBuildScenario()
	if _, err := reg.CallContext(context.Background(), nil, "nosuch", "GetQuality", nil); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := reg.CallContext(context.Background(), nil, StockKeeping, "NoFn", nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := reg.CallContext(context.Background(), nil, StockKeeping, "GetQuality", nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := reg.CallContext(context.Background(), nil, StockKeeping, "GetQuality", []types.Value{types.NewString("x")}); err == nil {
		t.Error("uncastable argument accepted")
	}
	// Arguments castable to the declared type are accepted.
	tab, err := reg.CallContext(context.Background(), nil, StockKeeping, "GetQuality", []types.Value{types.NewString("3")})
	if err != nil || tab.Len() != 1 {
		t.Errorf("castable argument rejected: %v", err)
	}
}

func TestResolve(t *testing.T) {
	reg := MustBuildScenario()
	sys, fn, err := reg.Resolve("GetGrade")
	if err != nil || sys.Name() != Purchasing || fn.Name != "GetGrade" {
		t.Errorf("Resolve = %v, %v, %v", sys, fn, err)
	}
	if _, _, err := reg.Resolve("NoSuchFn"); err == nil {
		t.Error("Resolve of unknown function succeeded")
	}
	// A duplicated function name across systems must be ambiguous.
	dup := NewSystem("dup")
	if err := dup.Register(&Function{
		Name:    "GetGrade",
		Returns: types.Schema{{Name: "X", Type: types.Integer}},
		Impl: func(sys *System, args []types.Value) (*types.Table, error) {
			return types.NewTable(types.Schema{{Name: "X", Type: types.Integer}}), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(dup); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Resolve("GetGrade"); err == nil {
		t.Error("ambiguous Resolve succeeded")
	}
}

func TestServiceTimeCharged(t *testing.T) {
	reg := MustBuildScenario()
	task := simlat.NewVirtualTask()
	if _, err := reg.CallContext(context.Background(), task, Purchasing, "GetGrade", []types.Value{types.NewInt(1), types.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if task.Elapsed() != DefaultServiceTime {
		t.Errorf("elapsed = %v, want %v", task.Elapsed(), DefaultServiceTime)
	}
}

func TestHandlerDispatch(t *testing.T) {
	reg := MustBuildScenario()
	h := reg.Handler()
	tab, err := h(context.Background(), simlat.Free(), rpc.Request{System: Purchasing, Function: "GetReliability", Args: []types.Value{types.NewInt(1)}})
	if err != nil || tab.Len() != 1 {
		t.Errorf("handler dispatch: %v", err)
	}
	// Empty system routes through Resolve.
	tab, err = h(context.Background(), simlat.Free(), rpc.Request{Function: "GetCompNo", Args: []types.Value{types.NewString("nut")}})
	if err != nil || tab.Rows[0][0].Int() != 2 {
		t.Errorf("resolve dispatch: %v %v", tab, err)
	}
	if _, err := h(context.Background(), simlat.Free(), rpc.Request{Function: "NoFn"}); err == nil {
		t.Error("handler accepted unknown function")
	}
}

func TestRegistryDuplicates(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(NewSystem("a")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(NewSystem("A")); err == nil {
		t.Error("case-insensitive duplicate system accepted")
	}
	sys := NewSystem("b")
	f := &Function{Name: "f", Returns: types.Schema{{Name: "X", Type: types.Integer}},
		Impl: func(*System, []types.Value) (*types.Table, error) {
			return types.NewTable(types.Schema{{Name: "X", Type: types.Integer}}), nil
		}}
	if err := sys.Register(f); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(f); err == nil {
		t.Error("duplicate function accepted")
	}
}

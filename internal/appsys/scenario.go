package appsys

import (
	"fmt"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// DefaultServiceTime is the simulated execution time of one local function
// call, calibrated so that the three local functions of GetNoSuppComp
// account for ~6% of the UDTF architecture's elapsed time (Fig. 6).
const DefaultServiceTime = 2 * simlat.PaperMS

// System names of the purchasing scenario.
const (
	StockKeeping = "stockkeeping"
	ProductData  = "pdm"
	Purchasing   = "purchasing"
)

// BuildScenario constructs the paper's three application systems with
// deterministic seed data and every local function referenced in Sects.
// 1-4: GetQuality, GetNumber, GetCompNo, GetSubCompNo, GetNextCompName,
// GetReliability, GetSupplierNo, GetGrade, DecidePurchase, and
// GetCompSupp4Discount.
func BuildScenario() (*Registry, error) {
	reg := NewRegistry()
	for _, build := range []func() (*System, error){buildStockKeeping, buildProductData, buildPurchasing} {
		sys, err := build()
		if err != nil {
			return nil, err
		}
		if err := reg.Add(sys); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// MustBuildScenario is BuildScenario for fixtures.
func MustBuildScenario() *Registry {
	reg, err := BuildScenario()
	if err != nil {
		panic(err)
	}
	return reg
}

// Scenario dimensions (deterministic seed data).
const (
	NumSuppliers  = 10
	NumComponents = 24
	// SpecialSupplier is the constant supplier of the paper's simple-case
	// federated function GetNumberSupp1234.
	SpecialSupplier = 1234
)

// SupplierQuality returns the seeded quality rate of a supplier.
func SupplierQuality(supplierNo int) int { return 40 + (supplierNo*13)%55 }

// SupplierReliability returns the seeded reliability rate of a supplier.
func SupplierReliability(supplierNo int) int { return 35 + (supplierNo*17)%60 }

// Grade computes the purchasing system's component grade.
func Grade(qual, relia int) int { return (qual + relia) / 2 }

// ComponentName returns the seeded name of a component.
func ComponentName(compNo int) string {
	named := []string{"bolt", "nut", "washer", "pin", "gasket"}
	if compNo >= 1 && compNo <= len(named) {
		return named[compNo-1]
	}
	return fmt.Sprintf("Comp%d", compNo)
}

// StockNumber returns the stock-keeping number for a (supplier, component)
// pair that is in stock, per the seeding rule.
func StockNumber(supplierNo, compNo int) int { return supplierNo*1000 + compNo }

// InStock reports whether the seeding rule stocks a component for a
// supplier.
func InStock(supplierNo, compNo int) bool { return (supplierNo+compNo)%3 == 0 }

func supplierNumbers() []int {
	nos := make([]int, 0, NumSuppliers+1)
	for s := 1; s <= NumSuppliers; s++ {
		nos = append(nos, s)
	}
	return append(nos, SpecialSupplier)
}

// ------------------------------------------------------------------ stock

func buildStockKeeping() (*System, error) {
	sys := NewSystem(StockKeeping)
	items, err := sys.store.Create("stockitems", types.Schema{
		{Name: "SupplierNo", Type: types.Integer},
		{Name: "CompNo", Type: types.Integer},
		{Name: "Number", Type: types.Integer},
		{Name: "Qty", Type: types.Integer},
	})
	if err != nil {
		return nil, err
	}
	quality, err := sys.store.Create("quality", types.Schema{
		{Name: "SupplierNo", Type: types.Integer},
		{Name: "Qual", Type: types.Integer},
	})
	if err != nil {
		return nil, err
	}
	for _, s := range supplierNumbers() {
		if err := quality.Insert(types.Row{types.NewInt(int64(s)), types.NewInt(int64(SupplierQuality(s)))}); err != nil {
			return nil, err
		}
		for c := 1; c <= NumComponents; c++ {
			if !InStock(s, c) {
				continue
			}
			row := types.Row{
				types.NewInt(int64(s)), types.NewInt(int64(c)),
				types.NewInt(int64(StockNumber(s, c))), types.NewInt(int64((s * c) % 50)),
			}
			if err := items.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	if err := items.CreateIndex("SupplierNo"); err != nil {
		return nil, err
	}
	if err := quality.CreateIndex("SupplierNo"); err != nil {
		return nil, err
	}

	funcs := []*Function{
		{
			Name:        "GetQuality",
			Params:      []types.Column{{Name: "SupplierNo", Type: types.Integer}},
			Returns:     types.Schema{{Name: "Qual", Type: types.Integer}},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				return lookupProject(sys, "quality", "SupplierNo", args[0], "Qual")
			},
		},
		{
			Name: "GetNumber",
			Params: []types.Column{
				{Name: "SupplierNo", Type: types.Integer},
				{Name: "CompNo", Type: types.Integer},
			},
			Returns:     types.Schema{{Name: "Number", Type: types.Integer}},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				tab, err := sys.store.Get("stockitems")
				if err != nil {
					return nil, err
				}
				out := types.NewTable(types.Schema{{Name: "Number", Type: types.Integer}})
				for _, r := range tab.Select(func(r types.Row) bool {
					return r[0].Equal(args[0]) && r[1].Equal(args[1])
				}) {
					out.Rows = append(out.Rows, types.Row{r[2]})
				}
				return out, nil
			},
		},
	}
	for _, f := range funcs {
		if err := sys.Register(f); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// -------------------------------------------------------------------- pdm

func buildProductData() (*System, error) {
	sys := NewSystem(ProductData)
	comps, err := sys.store.Create("components", types.Schema{
		{Name: "CompNo", Type: types.Integer},
		{Name: "CompName", Type: types.VarCharN(30)},
	})
	if err != nil {
		return nil, err
	}
	bom, err := sys.store.Create("bom", types.Schema{
		{Name: "CompNo", Type: types.Integer},
		{Name: "SubCompNo", Type: types.Integer},
	})
	if err != nil {
		return nil, err
	}
	for c := 1; c <= NumComponents; c++ {
		if err := comps.Insert(types.Row{types.NewInt(int64(c)), types.NewString(ComponentName(c))}); err != nil {
			return nil, err
		}
		for _, sub := range []int{2 * c, 2*c + 1} {
			if sub <= NumComponents {
				if err := bom.Insert(types.Row{types.NewInt(int64(c)), types.NewInt(int64(sub))}); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := comps.CreateIndex("CompName"); err != nil {
		return nil, err
	}
	if err := bom.CreateIndex("CompNo"); err != nil {
		return nil, err
	}

	funcs := []*Function{
		{
			Name:        "GetCompNo",
			Params:      []types.Column{{Name: "CompName", Type: types.VarCharN(30)}},
			Returns:     types.Schema{{Name: "No", Type: types.Integer}},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				return lookupProject(sys, "components", "CompName", args[0], "CompNo")
			},
		},
		{
			Name:        "GetSubCompNo",
			Params:      []types.Column{{Name: "CompNo", Type: types.Integer}},
			Returns:     types.Schema{{Name: "SubCompNo", Type: types.Integer}},
			ServiceTime: DefaultServiceTime,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				return lookupProject(sys, "bom", "CompNo", args[0], "SubCompNo")
			},
		},
		{
			// GetNextCompName is the iterated local function of the cyclic
			// case (Sect. 3): each call returns one component name plus a
			// cursor for the next call; HasMore signals loop termination.
			Name:   "GetNextCompName",
			Params: []types.Column{{Name: "Cursor", Type: types.Integer}},
			Returns: types.Schema{
				{Name: "CompName", Type: types.VarCharN(30)},
				{Name: "NextCursor", Type: types.Integer},
				{Name: "HasMore", Type: types.Integer},
			},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				cursor := args[0].Int()
				out := types.NewTable(types.Schema{
					{Name: "CompName", Type: types.VarCharN(30)},
					{Name: "NextCursor", Type: types.Integer},
					{Name: "HasMore", Type: types.Integer},
				})
				compNo := int(cursor) + 1
				if compNo < 1 || compNo > NumComponents {
					return out, nil
				}
				hasMore := int64(0)
				if compNo < NumComponents {
					hasMore = 1
				}
				out.Rows = append(out.Rows, types.Row{
					types.NewString(ComponentName(compNo)),
					types.NewInt(int64(compNo)),
					types.NewInt(hasMore),
				})
				return out, nil
			},
		},
	}
	for _, f := range funcs {
		if err := sys.Register(f); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// ------------------------------------------------------------- purchasing

func buildPurchasing() (*System, error) {
	sys := NewSystem(Purchasing)
	suppliers, err := sys.store.Create("suppliers", types.Schema{
		{Name: "SupplierNo", Type: types.Integer},
		{Name: "Name", Type: types.VarCharN(30)},
		{Name: "Relia", Type: types.Integer},
	})
	if err != nil {
		return nil, err
	}
	discounts, err := sys.store.Create("discounts", types.Schema{
		{Name: "SupplierNo", Type: types.Integer},
		{Name: "CompNo", Type: types.Integer},
		{Name: "Discount", Type: types.Integer},
	})
	if err != nil {
		return nil, err
	}
	for _, s := range supplierNumbers() {
		name := fmt.Sprintf("Supplier%d", s)
		if s == SpecialSupplier {
			name = "MegaParts"
		}
		if err := suppliers.Insert(types.Row{
			types.NewInt(int64(s)), types.NewString(name), types.NewInt(int64(SupplierReliability(s))),
		}); err != nil {
			return nil, err
		}
	}
	for s := 1; s <= NumSuppliers; s++ {
		for c := s; c <= s+3 && c <= NumComponents; c++ {
			if err := discounts.Insert(types.Row{
				types.NewInt(int64(s)), types.NewInt(int64(c)), types.NewInt(int64((s*7 + c) % 30)),
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := suppliers.CreateIndex("SupplierNo"); err != nil {
		return nil, err
	}
	if err := suppliers.CreateIndex("Name"); err != nil {
		return nil, err
	}

	funcs := []*Function{
		{
			Name:        "GetReliability",
			Params:      []types.Column{{Name: "SupplierNo", Type: types.Integer}},
			Returns:     types.Schema{{Name: "Relia", Type: types.Integer}},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				return lookupProject(sys, "suppliers", "SupplierNo", args[0], "Relia")
			},
		},
		{
			Name:        "GetSupplierNo",
			Params:      []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
			Returns:     types.Schema{{Name: "SupplierNo", Type: types.Integer}},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				return lookupProject(sys, "suppliers", "Name", args[0], "SupplierNo")
			},
		},
		{
			Name: "GetGrade",
			Params: []types.Column{
				{Name: "Qual", Type: types.Integer},
				{Name: "Relia", Type: types.Integer},
			},
			Returns:     types.Schema{{Name: "Grade", Type: types.Integer}},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				out := types.NewTable(types.Schema{{Name: "Grade", Type: types.Integer}})
				out.Rows = append(out.Rows, types.Row{
					types.NewInt(int64(Grade(int(args[0].Int()), int(args[1].Int())))),
				})
				return out, nil
			},
		},
		{
			Name: "DecidePurchase",
			Params: []types.Column{
				{Name: "Grade", Type: types.Integer},
				{Name: "CompNo", Type: types.Integer},
			},
			Returns:     types.Schema{{Name: "Answer", Type: types.VarCharN(10)}},
			ServiceTime: DefaultServiceTime,
			Single:      true,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				answer := "NO"
				// Buy when the supplier grade clears the threshold and the
				// component number is valid.
				if args[0].Int() >= 60 && args[1].Int() >= 1 && args[1].Int() <= NumComponents {
					answer = "YES"
				}
				out := types.NewTable(types.Schema{{Name: "Answer", Type: types.VarCharN(10)}})
				out.Rows = append(out.Rows, types.Row{types.NewString(answer)})
				return out, nil
			},
		},
		{
			Name:   "GetCompSupp4Discount",
			Params: []types.Column{{Name: "Discount", Type: types.Integer}},
			Returns: types.Schema{
				{Name: "CompNo", Type: types.Integer},
				{Name: "SupplierNo", Type: types.Integer},
			},
			ServiceTime: DefaultServiceTime,
			Impl: func(sys *System, args []types.Value) (*types.Table, error) {
				tab, err := sys.store.Get("discounts")
				if err != nil {
					return nil, err
				}
				out := types.NewTable(types.Schema{
					{Name: "CompNo", Type: types.Integer},
					{Name: "SupplierNo", Type: types.Integer},
				})
				for _, r := range tab.Select(func(r types.Row) bool { return r[2].Int() >= args[0].Int() }) {
					out.Rows = append(out.Rows, types.Row{r[1], r[0]})
				}
				return out, nil
			},
		},
	}
	for _, f := range funcs {
		if err := sys.Register(f); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// lookupProject implements the common single-key lookup projected to one
// column. The answer carries no schema of its own: CallContext gives it
// the function's declared one. Its rows are carved from one slab.
func lookupProject(sys *System, table, keyCol string, key types.Value, outCol string) (*types.Table, error) {
	tab, err := sys.store.Get(table)
	if err != nil {
		return nil, err
	}
	ci := tab.ColumnIndex(outCol)
	if ci < 0 {
		return nil, fmt.Errorf("appsys: table %s has no column %s", table, outCol)
	}
	rows, err := tab.Lookup(keyCol, key)
	if err != nil {
		return nil, err
	}
	cells := make([]types.Value, len(rows))
	for k, r := range rows {
		cells[k] = r[ci]
		rows[k] = cells[k : k+1 : k+1]
	}
	return &types.Table{Rows: rows}, nil
}

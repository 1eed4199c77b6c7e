// Package fedfunc defines the paper's federated functions: mappings from
// one federated function onto one or more local functions of the
// application systems, classified by the heterogeneity cases of Sect. 3
// (trivial, simple, independent, dependent linear/(1:n)/(n:1)/cyclic, and
// the general case).
//
// Each mapping is defined once, as a Mapping graph, and compiled to SQL
// I-UDTF text (enhanced SQL UDTF architecture), a workflow process (WfMS
// architecture) and, for selected functions, a Go I-UDTF body (enhanced
// Java UDTF architecture); the Sect. 3 table's case and mechanisms are
// derived from the graph. The SQL compiler refuses the cyclic case — SQL
// has no loop construct, the capability gap the paper reports.
package fedfunc

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"fedwf/internal/appsys"
	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
	"fedwf/internal/wfms"
)

// Case classifies a mapping by the heterogeneity it bridges (Sect. 3).
type Case int

// Heterogeneity cases, in the paper's order of increasing complexity.
const (
	CaseTrivial Case = iota
	CaseSimple
	CaseIndependent
	CaseLinear
	CaseOneToN
	CaseNToOne
	CaseCyclic
	CaseGeneral
)

// String names the case as in the paper's table.
func (c Case) String() string {
	names := [...]string{"trivial", "simple", "independent", "dependent: linear", "dependent: (1:n)",
		"dependent: (n:1)", "dependent: cyclic", "general"}
	if c < 0 || int(c) >= len(names) {
		return "unknown"
	}
	return names[c]
}

// Mapping is the one definition of a federated function: a graph of
// local-function steps, read the way the lateral SQL join reads it.
type Mapping struct {
	Name    string
	Params  []types.Column
	Steps   []Step
	After   []Edge // ordering-only edges: To runs after From but reads nothing of it
	Joins   []Join // equi-join predicates over step columns
	Project []Out  // the result columns
	Loop    *Loop  // iterates the single step as a do-until block
	Go      bool   // also realised as a Go I-UDTF, registered as Name_Go
	Samples [][]types.Value
}

// Step calls one local function of an application system.
type Step struct {
	Alias, System, Function string
	Args                    []Arg
}

// Ref names a column of a step's result.
type Ref struct{ Step, Column string }

// Arg is a step argument: a parameter (or the loop cursor), a column of
// an earlier step, or a constant, held as the process's argument source.
type Arg struct{ src wfms.Source }

// Param passes a parameter of the mapping, or the loop cursor.
func Param(name string) Arg { return Arg{wfms.Input(name)} }

// Column passes a column of an earlier step.
func Column(step, column string) Arg { return Arg{wfms.From(step, column)} }

// Const passes a constant.
func Const(v types.Value) Arg { return Arg{wfms.Const(v)} }

// Edge orders two steps.
type Edge struct{ From, To string }

// Join is the predicate Left = Right.
type Join struct{ Left, Right Ref }

// Out is a result column; Cast converts it explicitly (the simple case's
// BIGINT) rather than leaving the conversion to the result schema.
type Out struct {
	Name string
	Type types.Type
	From Ref
	Cast bool
}

// Loop is the cyclic case's do-until block, named Body: the step runs
// with the Cursor parameter bound to Start, then to the Next column of its
// previous first row, until it answers no row or a zero More column.
type Loop struct {
	Body, Cursor string
	Start        int64
	Next, More   string
}

// Spec is one federated function mapping, compiled from its Mapping.
type Spec struct {
	Name           string
	Case           Case
	LocalFunctions []string // local functions composed by the mapping
	Params         []types.Column
	Returns        types.Schema
	// SQLDefinition is the SQL I-UDTF's CREATE FUNCTION text; empty when
	// the SQL compiler refuses the mapping (the cyclic case).
	SQLDefinition string
	// Process builds the workflow realisation.
	Process func() *wfms.Process
	// GoBody, when set, is an additional Go I-UDTF realisation (the
	// enhanced Java UDTF architecture), registered as Name+"_Go".
	GoBody func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error)
	// SampleArgs are representative invocations for tests and experiments.
	SampleArgs [][]types.Value
	// UDTFMechanism and WfMSMechanism describe how each architecture
	// realises the case, regenerating the Sect. 3 table.
	UDTFMechanism string
	WfMSMechanism string

	graph *graph
}

// SupportsUDTF reports whether the enhanced SQL UDTF architecture can
// realise this mapping.
func (s *Spec) SupportsUDTF() bool { return s.SQLDefinition != "" }

// Specs returns the full mapping catalog in case order. The catalog is
// compiled once; callers share its Specs and must not modify them.
func Specs() []*Spec { return slices.Clone(compiled()) }

var compiled = sync.OnceValue(func() []*Spec {
	var specs []*Spec
	reg := appsys.MustBuildScenario() // for the local functions' signatures
	for _, m := range mappings {
		spec, err := compile(m, reg)
		if err != nil {
			panic(err) // the catalog is static; TestSpecCatalog compiles it
		}
		specs = append(specs, spec)
	}
	return specs
})

// SpecByName finds a mapping by federated function name.
func SpecByName(name string) (*Spec, error) {
	if i := slices.IndexFunc(compiled(), func(s *Spec) bool { return strings.EqualFold(s.Name, name) }); i >= 0 {
		return compiled()[i], nil
	}
	return nil, fmt.Errorf("fedfunc: no federated function named %s", name)
}

// AllCompNamesProcess builds the cyclic-case process; startCursor lets the
// loop-scaling experiment (E6) control the number of iterations.
func AllCompNamesProcess(startCursor int) *wfms.Process {
	m, loop := *allCompNames, *allCompNames.Loop
	loop.Start, m.Loop = int64(startCursor), &loop
	g, err := analyse(&m, appsys.MustBuildScenario())
	if err != nil {
		panic(err)
	}
	return g.process()
}

// args builds a sample argument row from Go ints and strings.
func args(vals ...any) []types.Value {
	row := make([]types.Value, len(vals))
	for i, v := range vals {
		if s, ok := v.(string); ok {
			row[i] = types.NewString(s)
		} else {
			row[i] = types.NewInt(int64(v.(int)))
		}
	}
	return row
}

// step builds a Step.
func step(alias, system, function string, args ...Arg) Step {
	return Step{Alias: alias, System: system, Function: function, Args: args}
}

// out builds an Out that needs no explicit cast.
func out(name string, t types.Type, step, column string) Out {
	return Out{Name: name, Type: t, From: Ref{step, column}}
}

// mappings is the catalog, in case order.
var mappings = []*Mapping{
	// The paper's trivial case: a German-named federated function mapped
	// 1:1 onto GetCompNo; only names differ.
	{
		Name:    "GibKompNr",
		Params:  []types.Column{{Name: "KompName", Type: types.VarCharN(30)}},
		Steps:   []Step{step("GCN", appsys.ProductData, "GetCompNo", Param("KompName"))},
		Project: []Out{out("KompNr", types.Integer, "GCN", "No")},
		Samples: [][]types.Value{args("washer"), args("bolt"), args("Comp17"), args("no such component")},
	},
	// The simple case: a constant supplier number supplements the call and
	// the result is cast INT->BIGINT (in the process, by a helper).
	{
		Name:   "GetNumberSupp1234",
		Params: []types.Column{{Name: "CompNo", Type: types.Integer}},
		Steps: []Step{step("GN", appsys.StockKeeping, "GetNumber",
			Const(types.NewInt(appsys.SpecialSupplier)), Param("CompNo"))},
		Project: []Out{{Name: "Number", Type: types.BigInt, From: Ref{"GN", "Number"}, Cast: true}},
		Samples: [][]types.Value{args(2), args(5), args(3)}, // 3 is not stocked by 1234: empty result
	},
	// The independent case: two local functions without mutual
	// dependencies, their results composed by a join with selection.
	{
		Name:   "GetSubCompDiscounts",
		Params: []types.Column{{Name: "CompNo", Type: types.Integer}, {Name: "Discount", Type: types.Integer}},
		Steps: []Step{
			step("GSCD", appsys.ProductData, "GetSubCompNo", Param("CompNo")),
			step("GCS4D", appsys.Purchasing, "GetCompSupp4Discount", Param("Discount")),
		},
		Joins:   []Join{{Ref{"GSCD", "SubCompNo"}, Ref{"GCS4D", "CompNo"}}},
		Project: []Out{out("SubCompNo", types.Integer, "GSCD", "SubCompNo"), out("SupplierNo", types.Integer, "GCS4D", "SupplierNo")},
		Samples: [][]types.Value{args(5, 10), args(3, 0), args(1, 29)},
	},
	// The linear dependent case: GetSupplierNo feeds GetQuality; the UDTF
	// realisation induces the order through a lateral parameter reference.
	{
		Name:   "GetSuppQual",
		Params: []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
		Steps: []Step{
			step("GSN", appsys.Purchasing, "GetSupplierNo", Param("SupplierName")),
			step("GQ", appsys.StockKeeping, "GetQuality", Column("GSN", "SupplierNo")),
		},
		Project: []Out{out("Qual", types.Integer, "GQ", "Qual")},
		Go:      true,
		Samples: [][]types.Value{args("Supplier3"), args("MegaParts"), args("nobody")},
	},
	// The parallel counterpart the paper measures against GetSuppQual, which
	// only the WfMS can run in parallel.
	{
		Name:   "GetSuppQualRelia",
		Params: []types.Column{{Name: "SupplierNo", Type: types.Integer}},
		Steps: []Step{
			step("GQ", appsys.StockKeeping, "GetQuality", Param("SupplierNo")),
			step("GR", appsys.Purchasing, "GetReliability", Param("SupplierNo")),
		},
		Project: []Out{out("Qual", types.Integer, "GQ", "Qual"), out("Relia", types.Integer, "GR", "Relia")},
		Samples: [][]types.Value{args(3), args(7), args(999)},
	},
	// The (1:n) dependency: GetGrade depends on both GetQuality and
	// GetReliability.
	{
		Name:   "GetSuppGrade",
		Params: []types.Column{{Name: "SupplierNo", Type: types.Integer}},
		Steps: []Step{
			step("GQ", appsys.StockKeeping, "GetQuality", Param("SupplierNo")),
			step("GR", appsys.Purchasing, "GetReliability", Param("SupplierNo")),
			step("GG", appsys.Purchasing, "GetGrade", Column("GQ", "Qual"), Column("GR", "Relia")),
		},
		Project: []Out{out("Grade", types.Integer, "GG", "Grade")},
		Samples: [][]types.Value{args(4), args(9)},
	},
	// The (n:1) dependency: GetQuality and GetReliability both depend on
	// GetSupplierNo (a fork in the control flow), which may feed both
	// because it answers at most one row.
	{
		Name:   "GetQualReliaFromName",
		Params: []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
		Steps: []Step{
			step("GSN", appsys.Purchasing, "GetSupplierNo", Param("SupplierName")),
			step("GQ", appsys.StockKeeping, "GetQuality", Column("GSN", "SupplierNo")),
			step("GR", appsys.Purchasing, "GetReliability", Column("GSN", "SupplierNo")),
		},
		Project: []Out{out("Qual", types.Integer, "GQ", "Qual"), out("Relia", types.Integer, "GR", "Relia")},
		Samples: [][]types.Value{args("Supplier5"), args("nobody")},
	},
	allCompNames,
	// The general case of Fig. 1: five local functions across all three
	// application systems, mixing parallel and sequential dependencies.
	{
		Name:   "BuySuppComp",
		Params: []types.Column{{Name: "SupplierNo", Type: types.Integer}, {Name: "CompName", Type: types.VarCharN(30)}},
		Steps: []Step{
			step("GQ", appsys.StockKeeping, "GetQuality", Param("SupplierNo")),
			step("GR", appsys.Purchasing, "GetReliability", Param("SupplierNo")),
			step("GG", appsys.Purchasing, "GetGrade", Column("GQ", "Qual"), Column("GR", "Relia")),
			step("GCN", appsys.ProductData, "GetCompNo", Param("CompName")),
			step("DP", appsys.Purchasing, "DecidePurchase", Column("GG", "Grade"), Column("GCN", "No")),
		},
		Project: []Out{out("Decision", types.VarCharN(10), "DP", "Answer")},
		Go:      true,
		Samples: [][]types.Value{args(4, "washer"), args(10, "bolt"), args(999, "bolt")},
	},
	// The function Fig. 6 breaks down: two independent lookups and a call
	// dependent on both. The ordering edge serialises the lookups, as the
	// prototype's process did — Fig. 6's three full activity slots.
	{
		Name:   "GetNoSuppComp",
		Params: []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}, {Name: "CompName", Type: types.VarCharN(30)}},
		Steps: []Step{
			step("GSN", appsys.Purchasing, "GetSupplierNo", Param("SupplierName")),
			step("GCN", appsys.ProductData, "GetCompNo", Param("CompName")),
			step("GN", appsys.StockKeeping, "GetNumber", Column("GSN", "SupplierNo"), Column("GCN", "No")),
		},
		After:   []Edge{{"GSN", "GCN"}},
		Project: []Out{out("Number", types.Integer, "GN", "Number")},
		Samples: [][]types.Value{args("Supplier1", "nut"), args("Supplier2", "bolt"), args("nobody", "bolt")},
	},
}

// allCompNames is the cyclic case: a do-until loop iterates one local
// function. SQL cannot express it; a programming-language body (the
// paper's Java architecture, here Go) regains the capability.
var allCompNames = &Mapping{
	Name:    "AllCompNames",
	Params:  []types.Column{},
	Steps:   []Step{step("GNC", appsys.ProductData, "GetNextCompName", Param("Cursor"))},
	Loop:    &Loop{Body: "FetchOneCompName", Cursor: "Cursor", Next: "NextCursor", More: "HasMore"},
	Project: []Out{out("CompName", types.VarCharN(30), "GNC", "CompName")},
	Go:      true,
	Samples: [][]types.Value{{}},
}

// Package fedfunc defines the paper's federated functions: mappings from
// one federated function onto one or more local functions of the
// application systems, classified by the heterogeneity cases of Sect. 3
// (trivial, simple, independent, dependent linear/(1:n)/(n:1)/cyclic, and
// the general case).
//
// Every mapping is specified once, architecture-neutrally, and realised
// twice: as a workflow process for the WfMS architecture and as SQL
// I-UDTF text for the enhanced SQL UDTF architecture (plus, for selected
// functions, a Go I-UDTF body for the enhanced Java UDTF architecture).
// The cyclic case has no SQL realisation — SQL offers no loop construct,
// which is exactly the capability gap the paper's Sect. 3 table reports.
package fedfunc

import (
	"context"
	"fmt"
	"strings"

	"fedwf/internal/appsys"
	"fedwf/internal/catalog"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
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
	switch c {
	case CaseTrivial:
		return "trivial"
	case CaseSimple:
		return "simple"
	case CaseIndependent:
		return "independent"
	case CaseLinear:
		return "dependent: linear"
	case CaseOneToN:
		return "dependent: (1:n)"
	case CaseNToOne:
		return "dependent: (n:1)"
	case CaseCyclic:
		return "dependent: cyclic"
	case CaseGeneral:
		return "general"
	default:
		return "unknown"
	}
}

// Spec is one federated function mapping.
type Spec struct {
	Name           string
	Case           Case
	LocalFunctions []string // local functions composed by the mapping
	Params         []types.Column
	Returns        types.Schema

	// SQLDefinition is the CREATE FUNCTION text of the SQL I-UDTF
	// realisation; empty when the UDTF architecture cannot express the
	// mapping (the cyclic case).
	SQLDefinition string

	// Process builds the workflow realisation.
	Process func() *wfms.Process

	// GoBody, when set, is an additional Go I-UDTF realisation (the
	// enhanced Java UDTF architecture), registered as Name+"_Go".
	GoBody func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error)

	// SampleArgs are representative invocations used by the equivalence
	// tests and the experiment drivers.
	SampleArgs [][]types.Value

	// UDTFMechanism and WfMSMechanism describe how each architecture
	// realises the case, regenerating the Sect. 3 table.
	UDTFMechanism string
	WfMSMechanism string
}

// SupportsUDTF reports whether the enhanced SQL UDTF architecture can
// realise this mapping.
func (s *Spec) SupportsUDTF() bool { return s.SQLDefinition != "" }

// Specs returns the full mapping catalog in case order.
func Specs() []*Spec {
	return []*Spec{
		gibKompNr(),
		getNumberSupp1234(),
		getSubCompDiscounts(),
		getSuppQual(),
		getSuppQualRelia(),
		getSuppGrade(),
		getQualReliaFromName(),
		allCompNames(),
		buySuppComp(),
		getNoSuppComp(),
	}
}

// SpecByName finds a mapping by federated function name.
func SpecByName(name string) (*Spec, error) {
	for _, s := range Specs() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("fedfunc: no federated function named %s", name)
}

// ----------------------------------------------------------- trivial case

// gibKompNr is the paper's trivial case: a German-named federated
// function mapped 1:1 onto GetCompNo; only names differ.
func gibKompNr() *Spec {
	return &Spec{
		Name:           "GibKompNr",
		Case:           CaseTrivial,
		LocalFunctions: []string{"GetCompNo"},
		Params:         []types.Column{{Name: "KompName", Type: types.VarCharN(30)}},
		Returns:        types.Schema{{Name: "KompNr", Type: types.Integer}},
		SQLDefinition: `CREATE FUNCTION GibKompNr (KompName VARCHAR(30))
			RETURNS TABLE (KompNr INT) LANGUAGE SQL RETURN
			SELECT GCN.No FROM TABLE (GetCompNo(GibKompNr.KompName)) AS GCN`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name:   "GibKompNr",
				Input:  []types.Column{{Name: "KompName", Type: types.VarCharN(30)}},
				Output: types.Schema{{Name: "KompNr", Type: types.Integer}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GCN", System: appsys.ProductData, Function: "GetCompNo",
						Args: []wfms.Source{wfms.Input("KompName")}},
				},
				Result: "GCN",
			}
		},
		SampleArgs: [][]types.Value{
			{types.NewString("washer")},
			{types.NewString("bolt")},
			{types.NewString("Comp17")},
			{types.NewString("no such component")},
		},
		UDTFMechanism: "hidden behind the federated function's signature",
		WfMSMechanism: "hidden behind the federated function's signature",
	}
}

// ------------------------------------------------------------ simple case

// getNumberSupp1234 is the simple case: the signatures differ — a constant
// supplier number supplements the call and the result is cast INT->BIGINT.
func getNumberSupp1234() *Spec {
	return &Spec{
		Name:           "GetNumberSupp1234",
		Case:           CaseSimple,
		LocalFunctions: []string{"GetNumber"},
		Params:         []types.Column{{Name: "CompNo", Type: types.Integer}},
		Returns:        types.Schema{{Name: "Number", Type: types.BigInt}},
		SQLDefinition: `CREATE FUNCTION GetNumberSupp1234 (CompNo INT)
			RETURNS TABLE (Number BIGINT) LANGUAGE SQL RETURN
			SELECT BIGINT(GN.Number)
			FROM TABLE (GetNumber(1234, GetNumberSupp1234.CompNo)) AS GN`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name:   "GetNumberSupp1234",
				Input:  []types.Column{{Name: "CompNo", Type: types.Integer}},
				Output: types.Schema{{Name: "Number", Type: types.BigInt}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GN", System: appsys.StockKeeping, Function: "GetNumber",
						Args: []wfms.Source{
							wfms.Const(types.NewInt(appsys.SpecialSupplier)),
							wfms.Input("CompNo"),
						}},
					// The paper's helper function: an additional activity
					// implementing the required type conversion.
					&wfms.HelperActivity{Name: "CastHelper", Fn: castColumnHelper("GN", "Number", types.BigInt)},
				},
				Flow:   []wfms.ControlConnector{{From: "GN", To: "CastHelper"}},
				Result: "CastHelper",
			}
		},
		SampleArgs: [][]types.Value{
			{types.NewInt(2)},
			{types.NewInt(5)},
			{types.NewInt(3)}, // not stocked by 1234: empty result
		},
		UDTFMechanism: "cast functions, supply of constant parameters",
		WfMSMechanism: "helper functions",
	}
}

// ------------------------------------------------------- independent case

// getSubCompDiscounts is the independent case: two local functions run
// without mutual dependencies; their result sets are composed by a join
// with selection (UDTF) resp. a combining helper after parallel
// activities (WfMS).
func getSubCompDiscounts() *Spec {
	return &Spec{
		Name:           "GetSubCompDiscounts",
		Case:           CaseIndependent,
		LocalFunctions: []string{"GetSubCompNo", "GetCompSupp4Discount"},
		Params: []types.Column{
			{Name: "CompNo", Type: types.Integer},
			{Name: "Discount", Type: types.Integer},
		},
		Returns: types.Schema{
			{Name: "SubCompNo", Type: types.Integer},
			{Name: "SupplierNo", Type: types.Integer},
		},
		SQLDefinition: `CREATE FUNCTION GetSubCompDiscounts (CompNo INT, Discount INT)
			RETURNS TABLE (SubCompNo INT, SupplierNo INT)
			LANGUAGE SQL RETURN
			SELECT GSCD.SubCompNo, GCS4D.SupplierNo
			FROM TABLE (GetSubCompNo(GetSubCompDiscounts.CompNo)) AS GSCD,
			     TABLE (GetCompSupp4Discount(GetSubCompDiscounts.Discount)) AS GCS4D
			WHERE GSCD.SubCompNo = GCS4D.CompNo`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name: "GetSubCompDiscounts",
				Input: []types.Column{
					{Name: "CompNo", Type: types.Integer},
					{Name: "Discount", Type: types.Integer},
				},
				Output: types.Schema{
					{Name: "SubCompNo", Type: types.Integer},
					{Name: "SupplierNo", Type: types.Integer},
				},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GSCD", System: appsys.ProductData, Function: "GetSubCompNo",
						Args: []wfms.Source{wfms.Input("CompNo")}},
					&wfms.FunctionActivity{Name: "GCS4D", System: appsys.Purchasing, Function: "GetCompSupp4Discount",
						Args: []wfms.Source{wfms.Input("Discount")}},
					&wfms.HelperActivity{Name: "JoinHelper", Fn: joinSubCompDiscounts},
				},
				Flow: []wfms.ControlConnector{
					{From: "GSCD", To: "JoinHelper"},
					{From: "GCS4D", To: "JoinHelper"},
				},
				Result: "JoinHelper",
			}
		},
		SampleArgs: [][]types.Value{
			{types.NewInt(5), types.NewInt(10)},
			{types.NewInt(3), types.NewInt(0)},
			{types.NewInt(1), types.NewInt(29)},
		},
		UDTFMechanism: "join with selection",
		WfMSMechanism: "parallel execution of activities",
	}
}

// --------------------------------------------------- dependent: linear

// getSuppQual is the linear dependent case: GetSupplierNo feeds
// GetQuality; the UDTF realisation induces the order through a lateral
// parameter reference.
func getSuppQual() *Spec {
	return &Spec{
		Name:           "GetSuppQual",
		Case:           CaseLinear,
		LocalFunctions: []string{"GetSupplierNo", "GetQuality"},
		Params:         []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
		Returns:        types.Schema{{Name: "Qual", Type: types.Integer}},
		SQLDefinition: `CREATE FUNCTION GetSuppQual (SupplierName VARCHAR(30))
			RETURNS TABLE (Qual INT) LANGUAGE SQL RETURN
			SELECT GQ.Qual
			FROM TABLE (GetSupplierNo(GetSuppQual.SupplierName)) AS GSN,
			     TABLE (GetQuality(GSN.SupplierNo)) AS GQ`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name:   "GetSuppQual",
				Input:  []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
				Output: types.Schema{{Name: "Qual", Type: types.Integer}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GSN", System: appsys.Purchasing, Function: "GetSupplierNo",
						Args: []wfms.Source{wfms.Input("SupplierName")}},
					&wfms.FunctionActivity{Name: "GQ", System: appsys.StockKeeping, Function: "GetQuality",
						Args: []wfms.Source{wfms.From("GSN", "SupplierNo")}},
				},
				Flow:   []wfms.ControlConnector{{From: "GSN", To: "GQ"}},
				Result: "GQ",
			}
		},
		GoBody: goBodyGetSuppQual,
		SampleArgs: [][]types.Value{
			{types.NewString("Supplier3")},
			{types.NewString("MegaParts")},
			{types.NewString("nobody")},
		},
		UDTFMechanism: "join with selection; execution order defined by input parameters",
		WfMSMechanism: "sequential execution of activities",
	}
}

// getSuppQualRelia is the parallel counterpart the paper measures against
// GetSuppQual: two independent local functions whose parallel execution
// only the WfMS can exploit.
func getSuppQualRelia() *Spec {
	return &Spec{
		Name:           "GetSuppQualRelia",
		Case:           CaseIndependent,
		LocalFunctions: []string{"GetQuality", "GetReliability"},
		Params:         []types.Column{{Name: "SupplierNo", Type: types.Integer}},
		Returns: types.Schema{
			{Name: "Qual", Type: types.Integer},
			{Name: "Relia", Type: types.Integer},
		},
		SQLDefinition: `CREATE FUNCTION GetSuppQualRelia (SupplierNo INT)
			RETURNS TABLE (Qual INT, Relia INT) LANGUAGE SQL RETURN
			SELECT GQ.Qual, GR.Relia
			FROM TABLE (GetQuality(GetSuppQualRelia.SupplierNo)) AS GQ,
			     TABLE (GetReliability(GetSuppQualRelia.SupplierNo)) AS GR`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name:   "GetSuppQualRelia",
				Input:  []types.Column{{Name: "SupplierNo", Type: types.Integer}},
				Output: types.Schema{{Name: "Qual", Type: types.Integer}, {Name: "Relia", Type: types.Integer}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GQ", System: appsys.StockKeeping, Function: "GetQuality",
						Args: []wfms.Source{wfms.Input("SupplierNo")}},
					&wfms.FunctionActivity{Name: "GR", System: appsys.Purchasing, Function: "GetReliability",
						Args: []wfms.Source{wfms.Input("SupplierNo")}},
					&wfms.HelperActivity{Name: "Combine", Fn: combineColumns(
						colRef{"GQ", "Qual"}, colRef{"GR", "Relia"},
					)},
				},
				Flow: []wfms.ControlConnector{
					{From: "GQ", To: "Combine"},
					{From: "GR", To: "Combine"},
				},
				Result: "Combine",
			}
		},
		SampleArgs: [][]types.Value{
			{types.NewInt(3)},
			{types.NewInt(7)},
			{types.NewInt(999)},
		},
		UDTFMechanism: "join with selection",
		WfMSMechanism: "parallel execution of activities",
	}
}

// ---------------------------------------------------- dependent: (1:n)

// getSuppGrade is the (1:n) dependency: GetGrade depends on both
// GetQuality and GetReliability.
func getSuppGrade() *Spec {
	return &Spec{
		Name:           "GetSuppGrade",
		Case:           CaseOneToN,
		LocalFunctions: []string{"GetQuality", "GetReliability", "GetGrade"},
		Params:         []types.Column{{Name: "SupplierNo", Type: types.Integer}},
		Returns:        types.Schema{{Name: "Grade", Type: types.Integer}},
		SQLDefinition: `CREATE FUNCTION GetSuppGrade (SupplierNo INT)
			RETURNS TABLE (Grade INT) LANGUAGE SQL RETURN
			SELECT GG.Grade
			FROM TABLE (GetQuality(GetSuppGrade.SupplierNo)) AS GQ,
			     TABLE (GetReliability(GetSuppGrade.SupplierNo)) AS GR,
			     TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name:   "GetSuppGrade",
				Input:  []types.Column{{Name: "SupplierNo", Type: types.Integer}},
				Output: types.Schema{{Name: "Grade", Type: types.Integer}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GQ", System: appsys.StockKeeping, Function: "GetQuality",
						Args: []wfms.Source{wfms.Input("SupplierNo")}},
					&wfms.FunctionActivity{Name: "GR", System: appsys.Purchasing, Function: "GetReliability",
						Args: []wfms.Source{wfms.Input("SupplierNo")}},
					&wfms.FunctionActivity{Name: "GG", System: appsys.Purchasing, Function: "GetGrade",
						Args: []wfms.Source{wfms.From("GQ", "Qual"), wfms.From("GR", "Relia")}},
				},
				Flow: []wfms.ControlConnector{
					{From: "GQ", To: "GG"},
					{From: "GR", To: "GG"},
				},
				Result: "GG",
			}
		},
		SampleArgs: [][]types.Value{
			{types.NewInt(4)},
			{types.NewInt(9)},
		},
		UDTFMechanism: "join with selection; execution order defined by input parameters",
		WfMSMechanism: "parallel and sequential execution of activities",
	}
}

// ---------------------------------------------------- dependent: (n:1)

// getQualReliaFromName is the (n:1) dependency: GetQuality and
// GetReliability both depend on GetSupplierNo (a fork in the control
// flow).
func getQualReliaFromName() *Spec {
	return &Spec{
		Name:           "GetQualReliaFromName",
		Case:           CaseNToOne,
		LocalFunctions: []string{"GetSupplierNo", "GetQuality", "GetReliability"},
		Params:         []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
		Returns: types.Schema{
			{Name: "Qual", Type: types.Integer},
			{Name: "Relia", Type: types.Integer},
		},
		SQLDefinition: `CREATE FUNCTION GetQualReliaFromName (SupplierName VARCHAR(30))
			RETURNS TABLE (Qual INT, Relia INT) LANGUAGE SQL RETURN
			SELECT GQ.Qual, GR.Relia
			FROM TABLE (GetSupplierNo(GetQualReliaFromName.SupplierName)) AS GSN,
			     TABLE (GetQuality(GSN.SupplierNo)) AS GQ,
			     TABLE (GetReliability(GSN.SupplierNo)) AS GR`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name:   "GetQualReliaFromName",
				Input:  []types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
				Output: types.Schema{{Name: "Qual", Type: types.Integer}, {Name: "Relia", Type: types.Integer}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GSN", System: appsys.Purchasing, Function: "GetSupplierNo",
						Args: []wfms.Source{wfms.Input("SupplierName")}},
					&wfms.FunctionActivity{Name: "GQ", System: appsys.StockKeeping, Function: "GetQuality",
						Args: []wfms.Source{wfms.From("GSN", "SupplierNo")}},
					&wfms.FunctionActivity{Name: "GR", System: appsys.Purchasing, Function: "GetReliability",
						Args: []wfms.Source{wfms.From("GSN", "SupplierNo")}},
					&wfms.HelperActivity{Name: "Combine", Fn: combineColumns(
						colRef{"GQ", "Qual"}, colRef{"GR", "Relia"},
					)},
				},
				Flow: []wfms.ControlConnector{
					{From: "GSN", To: "GQ"},
					{From: "GSN", To: "GR"},
					{From: "GQ", To: "Combine"},
					{From: "GR", To: "Combine"},
				},
				Result: "Combine",
			}
		},
		SampleArgs: [][]types.Value{
			{types.NewString("Supplier5")},
			{types.NewString("nobody")},
		},
		UDTFMechanism: "join with selection; execution order defined by input parameters",
		WfMSMechanism: "parallel and sequential execution of activities",
	}
}

// ---------------------------------------------------- dependent: cyclic

// allCompNames is the cyclic case: the same local function is iterated by
// a do-until loop over a sub-workflow. No SQL realisation exists — SQL
// has no loop construct — but the Go I-UDTF variant shows that a
// programming-language body (the paper's Java architecture) regains the
// capability.
func allCompNames() *Spec {
	return &Spec{
		Name:           "AllCompNames",
		Case:           CaseCyclic,
		LocalFunctions: []string{"GetNextCompName"},
		Params:         []types.Column{},
		Returns:        types.Schema{{Name: "CompName", Type: types.VarCharN(30)}},
		SQLDefinition:  "", // not supported: no loop construct in SQL
		Process: func() *wfms.Process {
			return AllCompNamesProcess(0)
		},
		GoBody: goBodyAllCompNames,
		SampleArgs: [][]types.Value{
			{},
		},
		UDTFMechanism: "not supported: no loop construct in SQL",
		WfMSMechanism: "loop construct with sub-workflow",
	}
}

// AllCompNamesProcess builds the cyclic-case process; startCursor lets the
// loop-scaling experiment (E6) control the number of iterations.
func AllCompNamesProcess(startCursor int) *wfms.Process {
	body := &wfms.Process{
		Name:  "FetchOneCompName",
		Input: []types.Column{{Name: "Cursor", Type: types.Integer}},
		Output: types.Schema{
			{Name: "CompName", Type: types.VarCharN(30)},
			{Name: "NextCursor", Type: types.Integer},
			{Name: "HasMore", Type: types.Integer},
		},
		Nodes: []wfms.Node{
			&wfms.FunctionActivity{Name: "GNC", System: appsys.ProductData, Function: "GetNextCompName",
				Args: []wfms.Source{wfms.Input("Cursor")}},
		},
		Result: "GNC",
	}
	return &wfms.Process{
		Name:   "AllCompNames",
		Input:  []types.Column{},
		Output: types.Schema{{Name: "CompName", Type: types.VarCharN(30)}},
		Nodes: []wfms.Node{
			&wfms.Block{
				Name: "Loop",
				Body: body,
				Args: map[string]wfms.Source{"Cursor": wfms.Const(types.NewInt(int64(startCursor)))},
				Until: func(out *types.Table) (bool, error) {
					if out.Len() == 0 {
						return true, nil
					}
					return out.Rows[0][2].Int() == 0, nil
				},
				Feedback: func(out *types.Table) (map[string]types.Value, error) {
					return map[string]types.Value{"Cursor": out.Rows[0][1]}, nil
				},
				Accumulate: true,
			},
			&wfms.HelperActivity{Name: "Project", Fn: func(in map[string]*types.Table) (*types.Table, error) {
				loop := in["loop"]
				out := types.NewTable(types.Schema{{Name: "CompName", Type: types.VarCharN(30)}})
				for _, r := range loop.Rows {
					out.Rows = append(out.Rows, types.Row{r[0]})
				}
				return out, nil
			}},
		},
		Flow:   []wfms.ControlConnector{{From: "Loop", To: "Project"}},
		Result: "Project",
	}
}

// ------------------------------------------------------------- general

// buySuppComp is the general case of Fig. 1: five local functions across
// all three application systems, mixing parallel and sequential
// dependencies.
func buySuppComp() *Spec {
	return &Spec{
		Name:           "BuySuppComp",
		Case:           CaseGeneral,
		LocalFunctions: []string{"GetQuality", "GetReliability", "GetGrade", "GetCompNo", "DecidePurchase"},
		Params: []types.Column{
			{Name: "SupplierNo", Type: types.Integer},
			{Name: "CompName", Type: types.VarCharN(30)},
		},
		Returns: types.Schema{{Name: "Decision", Type: types.VarCharN(10)}},
		SQLDefinition: `CREATE FUNCTION BuySuppComp (SupplierNo INT, CompName VARCHAR(30))
			RETURNS TABLE (Decision VARCHAR(10)) LANGUAGE SQL RETURN
			SELECT DP.Answer
			FROM TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ,
			     TABLE (GetReliability(BuySuppComp.SupplierNo)) AS GR,
			     TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG,
			     TABLE (GetCompNo(BuySuppComp.CompName)) AS GCN,
			     TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name: "BuySuppComp",
				Input: []types.Column{
					{Name: "SupplierNo", Type: types.Integer},
					{Name: "CompName", Type: types.VarCharN(30)},
				},
				Output: types.Schema{{Name: "Decision", Type: types.VarCharN(10)}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GQ", System: appsys.StockKeeping, Function: "GetQuality",
						Args: []wfms.Source{wfms.Input("SupplierNo")}},
					&wfms.FunctionActivity{Name: "GR", System: appsys.Purchasing, Function: "GetReliability",
						Args: []wfms.Source{wfms.Input("SupplierNo")}},
					&wfms.FunctionActivity{Name: "GG", System: appsys.Purchasing, Function: "GetGrade",
						Args: []wfms.Source{wfms.From("GQ", "Qual"), wfms.From("GR", "Relia")}},
					&wfms.FunctionActivity{Name: "GCN", System: appsys.ProductData, Function: "GetCompNo",
						Args: []wfms.Source{wfms.Input("CompName")}},
					&wfms.FunctionActivity{Name: "DP", System: appsys.Purchasing, Function: "DecidePurchase",
						Args: []wfms.Source{wfms.From("GG", "Grade"), wfms.From("GCN", "No")}},
				},
				Flow: []wfms.ControlConnector{
					{From: "GQ", To: "GG"},
					{From: "GR", To: "GG"},
					{From: "GG", To: "DP"},
					{From: "GCN", To: "DP"},
				},
				Result: "DP",
			}
		},
		GoBody: goBodyBuySuppComp,
		SampleArgs: [][]types.Value{
			{types.NewInt(4), types.NewString("washer")},
			{types.NewInt(10), types.NewString("bolt")},
			{types.NewInt(999), types.NewString("bolt")},
		},
		UDTFMechanism: "one I-UDTF SELECT over five A-UDTFs",
		WfMSMechanism: "Fig. 1 process: parallel and sequential activities",
	}
}

// getNoSuppComp is the function the paper's Fig. 6 time-portion breakdown
// measures: three local functions (two independent, one dependent on
// both).
func getNoSuppComp() *Spec {
	return &Spec{
		Name:           "GetNoSuppComp",
		Case:           CaseOneToN,
		LocalFunctions: []string{"GetSupplierNo", "GetCompNo", "GetNumber"},
		Params: []types.Column{
			{Name: "SupplierName", Type: types.VarCharN(30)},
			{Name: "CompName", Type: types.VarCharN(30)},
		},
		Returns: types.Schema{{Name: "Number", Type: types.Integer}},
		SQLDefinition: `CREATE FUNCTION GetNoSuppComp (SupplierName VARCHAR(30), CompName VARCHAR(30))
			RETURNS TABLE (Number INT) LANGUAGE SQL RETURN
			SELECT GN.Number
			FROM TABLE (GetSupplierNo(GetNoSuppComp.SupplierName)) AS GSN,
			     TABLE (GetCompNo(GetNoSuppComp.CompName)) AS GCN,
			     TABLE (GetNumber(GSN.SupplierNo, GCN.No)) AS GN`,
		Process: func() *wfms.Process {
			return &wfms.Process{
				Name: "GetNoSuppComp",
				Input: []types.Column{
					{Name: "SupplierName", Type: types.VarCharN(30)},
					{Name: "CompName", Type: types.VarCharN(30)},
				},
				Output: types.Schema{{Name: "Number", Type: types.Integer}},
				Nodes: []wfms.Node{
					&wfms.FunctionActivity{Name: "GSN", System: appsys.Purchasing, Function: "GetSupplierNo",
						Args: []wfms.Source{wfms.Input("SupplierName")}},
					&wfms.FunctionActivity{Name: "GCN", System: appsys.ProductData, Function: "GetCompNo",
						Args: []wfms.Source{wfms.Input("CompName")}},
					&wfms.FunctionActivity{Name: "GN", System: appsys.StockKeeping, Function: "GetNumber",
						Args: []wfms.Source{wfms.From("GSN", "SupplierNo"), wfms.From("GCN", "No")}},
				},
				// The prototype's process serialises the two lookups before
				// the dependent call — the three full activity slots whose
				// cost shares Fig. 6 reports.
				Flow: []wfms.ControlConnector{
					{From: "GSN", To: "GCN"},
					{From: "GCN", To: "GN"},
				},
				Result: "GN",
			}
		},
		SampleArgs: [][]types.Value{
			{types.NewString("Supplier1"), types.NewString("nut")},
			{types.NewString("Supplier2"), types.NewString("bolt")},
			{types.NewString("nobody"), types.NewString("bolt")},
		},
		UDTFMechanism: "join with selection; execution order defined by input parameters",
		WfMSMechanism: "sequential execution of activities",
	}
}

// ------------------------------------------------------------- helpers

type colRef struct {
	node, column string
}

// combineColumns builds a helper that zips single-row outputs of several
// nodes into one row.
func combineColumns(refs ...colRef) func(map[string]*types.Table) (*types.Table, error) {
	return func(in map[string]*types.Table) (*types.Table, error) {
		schema := make(types.Schema, len(refs))
		row := make(types.Row, len(refs))
		for i, ref := range refs {
			tab, ok := in[strings.ToLower(ref.node)]
			if !ok || tab == nil {
				return nil, fmt.Errorf("fedfunc: combine helper misses container %s", ref.node)
			}
			if tab.Len() == 0 {
				// Any empty operand empties the combination.
				return types.NewTable(combinedSchema(refs, in)), nil
			}
			ci := tab.Schema.ColumnIndex(ref.column)
			if ci < 0 {
				return nil, fmt.Errorf("fedfunc: container %s has no field %s", ref.node, ref.column)
			}
			schema[i] = tab.Schema[ci]
			row[i] = tab.Rows[0][ci]
		}
		out := types.NewTable(schema)
		out.Rows = append(out.Rows, row)
		return out, nil
	}
}

func combinedSchema(refs []colRef, in map[string]*types.Table) types.Schema {
	schema := make(types.Schema, len(refs))
	for i, ref := range refs {
		if tab := in[strings.ToLower(ref.node)]; tab != nil {
			if ci := tab.Schema.ColumnIndex(ref.column); ci >= 0 {
				schema[i] = tab.Schema[ci]
				continue
			}
		}
		schema[i] = types.Column{Name: ref.column}
	}
	return schema
}

// castColumnHelper builds the simple case's type-conversion helper.
func castColumnHelper(node, column string, target types.Type) func(map[string]*types.Table) (*types.Table, error) {
	return func(in map[string]*types.Table) (*types.Table, error) {
		src, ok := in[strings.ToLower(node)]
		if !ok || src == nil {
			return nil, fmt.Errorf("fedfunc: cast helper misses container %s", node)
		}
		out := types.NewTable(types.Schema{{Name: column, Type: target}})
		if src.Len() == 0 {
			return out, nil
		}
		ci := src.Schema.ColumnIndex(column)
		if ci < 0 {
			return nil, fmt.Errorf("fedfunc: container %s has no field %s", node, column)
		}
		for _, r := range src.Rows {
			v, err := types.Cast(r[ci], target)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, types.Row{v})
		}
		return out, nil
	}
}

// joinSubCompDiscounts composes the independent case's two result sets:
// join on GSCD.SubCompNo = GCS4D.CompNo, projecting (SubCompNo,
// SupplierNo) — the helper-activity equivalent of the I-UDTF's WHERE
// clause.
func joinSubCompDiscounts(in map[string]*types.Table) (*types.Table, error) {
	subs, discounts := in["gscd"], in["gcs4d"]
	out := types.NewTable(types.Schema{
		{Name: "SubCompNo", Type: types.Integer},
		{Name: "SupplierNo", Type: types.Integer},
	})
	if subs == nil || discounts == nil || subs.Len() == 0 || discounts.Len() == 0 {
		return out, nil
	}
	for _, s := range subs.Rows {
		for _, d := range discounts.Rows {
			if s[0].Equal(d[0]) {
				out.Rows = append(out.Rows, types.Row{s[0], d[1]})
			}
		}
	}
	return out, nil
}

// --------------------------------------------------------- Go I-UDTF bodies

// runSelect parses and runs one nested statement against the FDBS — the
// Go analogue of the Java I-UDTF's JDBC calls.
func runSelect(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, sql string) (*types.Table, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return rt.RunSelectContext(ctx, sel, nil, task)
}

// goBodyGetSuppQual realises the linear case in a programming language:
// two separate statements with explicit control flow instead of a lateral
// reference.
func goBodyGetSuppQual(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	nos, err := runSelect(ctx, rt, task, fmt.Sprintf(
		"SELECT GSN.SupplierNo FROM TABLE (GetSupplierNo(%s)) AS GSN", args[0]))
	if err != nil {
		return nil, err
	}
	out := types.NewTable(types.Schema{{Name: "Qual", Type: types.Integer}})
	for _, r := range nos.Rows {
		quals, err := runSelect(ctx, rt, task, fmt.Sprintf(
			"SELECT GQ.Qual FROM TABLE (GetQuality(%s)) AS GQ", r[0]))
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, quals.Rows...)
	}
	return out, nil
}

// goBodyBuySuppComp realises the general case with multiple statements.
func goBodyBuySuppComp(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	grades, err := runSelect(ctx, rt, task, fmt.Sprintf(
		`SELECT GG.Grade FROM TABLE (GetQuality(%s)) AS GQ,
		 TABLE (GetReliability(%s)) AS GR,
		 TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG`, args[0], args[0]))
	if err != nil {
		return nil, err
	}
	compNos, err := runSelect(ctx, rt, task, fmt.Sprintf(
		"SELECT GCN.No FROM TABLE (GetCompNo(%s)) AS GCN", args[1]))
	if err != nil {
		return nil, err
	}
	out := types.NewTable(types.Schema{{Name: "Decision", Type: types.VarCharN(10)}})
	for _, g := range grades.Rows {
		for _, c := range compNos.Rows {
			dec, err := runSelect(ctx, rt, task, fmt.Sprintf(
				"SELECT DP.Answer FROM TABLE (DecidePurchase(%s, %s)) AS DP", g[0], c[0]))
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, dec.Rows...)
		}
	}
	return out, nil
}

// goBodyAllCompNames regains the cyclic case through a host-language
// loop, which SQL I-UDTFs cannot express.
func goBodyAllCompNames(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
	out := types.NewTable(types.Schema{{Name: "CompName", Type: types.VarCharN(30)}})
	cursor := int64(0)
	for i := 0; i < wfms.DefaultMaxIterations; i++ {
		step, err := runSelect(ctx, rt, task, fmt.Sprintf(
			"SELECT GNC.CompName, GNC.NextCursor, GNC.HasMore FROM TABLE (GetNextCompName(%d)) AS GNC", cursor))
		if err != nil {
			return nil, err
		}
		if step.Len() == 0 {
			return out, nil
		}
		out.Rows = append(out.Rows, types.Row{step.Rows[0][0]})
		if step.Rows[0][2].Int() == 0 {
			return out, nil
		}
		cursor = step.Rows[0][1].Int()
	}
	return nil, fmt.Errorf("fedfunc: AllCompNames loop did not terminate")
}

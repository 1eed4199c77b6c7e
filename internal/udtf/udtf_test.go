package udtf

import (
	"context"
	"testing"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/catalog"
	"fedwf/internal/controller"
	"fedwf/internal/engine"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
	"fedwf/internal/wfms"
)

type fixture struct {
	eng     *engine.Engine
	bridge  *controller.Bridge
	ins     *Instrument
	profile simlat.Profile
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	profile := simlat.DefaultProfile()
	apps := appsys.MustBuildScenario()
	client := rpc.NewInProc(apps.Handler())
	invoker := wfms.InvokerFunc(func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
		return client.Call(ctx, task, rpc.Request{System: system, Function: function, Args: args})
	})
	wfEngine := wfms.New(invoker, wfms.CostsFromProfile(profile))
	ctl := controller.New(profile, wfEngine, client)
	return &fixture{
		eng:     engine.New(),
		bridge:  controller.NewBridge(profile, ctl),
		ins:     NewInstrument(profile),
		profile: profile,
	}
}

func (f *fixture) measure(t *testing.T, sql string) (time.Duration, *types.Table) {
	t.Helper()
	session := f.eng.NewSession()
	task := simlat.NewVirtualTask()
	session.SetTask(task)
	tab, err := session.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return task.Elapsed(), tab
}

func TestAccessUDTF(t *testing.T) {
	f := newFixture(t)
	err := RegisterAccessUDTF(f.eng, f.bridge, f.ins, "GetQuality", appsys.StockKeeping, "GetQuality",
		[]types.Column{{Name: "SupplierNo", Type: types.Integer}},
		types.Schema{{Name: "Qual", Type: types.Integer}})
	if err != nil {
		t.Fatal(err)
	}
	// First call after construction pays prepare-miss + controller connect.
	elapsed1, tab := f.measure(t, "SELECT * FROM TABLE (GetQuality(3)) AS q")
	if tab.Len() != 1 || tab.Rows[0][0].Int() != int64(appsys.SupplierQuality(3)) {
		t.Fatalf("result:\n%s", tab)
	}
	elapsed2, _ := f.measure(t, "SELECT * FROM TABLE (GetQuality(3)) AS q")
	hotWant := f.profile.AUDTFPrepare + f.profile.RMICall + f.profile.ControllerDispatch +
		appsys.DefaultServiceTime + f.profile.AUDTFFinish + f.profile.RMIReturn
	if elapsed2 != hotWant {
		t.Errorf("hot A-UDTF call = %v, want %v", elapsed2, hotWant)
	}
	if elapsed1 != hotWant+f.profile.PrepareMiss+f.profile.ControllerConnect {
		t.Errorf("first A-UDTF call = %v", elapsed1)
	}
}

func TestInstrumentFlushLevels(t *testing.T) {
	f := newFixture(t)
	if err := RegisterAccessUDTF(f.eng, f.bridge, f.ins, "GetReliability", appsys.Purchasing, "GetReliability",
		[]types.Column{{Name: "SupplierNo", Type: types.Integer}},
		types.Schema{{Name: "Relia", Type: types.Integer}}); err != nil {
		t.Fatal(err)
	}
	q := "SELECT * FROM TABLE (GetReliability(3)) AS r"
	f.measure(t, q) // absorb cold-ish costs
	hot, _ := f.measure(t, q)

	f.ins.Flush(FlushWarm)
	warm, _ := f.measure(t, q)
	if warm-hot != f.profile.PrepareMiss {
		t.Errorf("warm penalty = %v, want %v", warm-hot, f.profile.PrepareMiss)
	}

	f.ins.Flush(FlushCold)
	f.bridge.Reset()
	cold, _ := f.measure(t, q)
	if cold-hot != f.profile.PrepareMiss+f.profile.ColdBoot+f.profile.ControllerConnect {
		t.Errorf("cold penalty = %v", cold-hot)
	}

	f.ins.Flush(FlushHot) // no-op
	again, _ := f.measure(t, q)
	if again != hot {
		t.Errorf("hot after FlushHot = %v, want %v", again, hot)
	}
}

func TestSQLIntegrationUDTFHooks(t *testing.T) {
	f := newFixture(t)
	if err := RegisterAccessUDTF(f.eng, f.bridge, f.ins, "GetSupplierNo", appsys.Purchasing, "GetSupplierNo",
		[]types.Column{{Name: "SupplierName", Type: types.VarCharN(30)}},
		types.Schema{{Name: "SupplierNo", Type: types.Integer}}); err != nil {
		t.Fatal(err)
	}
	err := RegisterSQLIntegrationUDTF(f.eng, f.ins, `CREATE FUNCTION FindNo (Name VARCHAR(30))
		RETURNS TABLE (No INT) LANGUAGE SQL RETURN
		SELECT GSN.SupplierNo FROM TABLE (GetSupplierNo(FindNo.Name)) AS GSN`)
	if err != nil {
		t.Fatal(err)
	}
	f.measure(t, "SELECT * FROM TABLE (FindNo('Supplier2')) AS r") // warm everything
	hot, tab := f.measure(t, "SELECT * FROM TABLE (FindNo('Supplier2')) AS r")
	if tab.Len() != 1 || tab.Rows[0][0].Int() != 2 {
		t.Fatalf("result:\n%s", tab)
	}
	inner := f.profile.AUDTFPrepare + f.profile.RMICall + f.profile.ControllerDispatch +
		appsys.DefaultServiceTime + f.profile.AUDTFFinish + f.profile.RMIReturn
	want := f.profile.IUDTFStart + inner + f.profile.IUDTFFinish
	if hot != want {
		t.Errorf("hot I-UDTF call = %v, want %v", hot, want)
	}

	// Registration rejects non-CREATE-FUNCTION and invalid statements.
	if err := RegisterSQLIntegrationUDTF(f.eng, f.ins, "SELECT 1"); err == nil {
		t.Error("non-CREATE-FUNCTION accepted")
	}
	if err := RegisterSQLIntegrationUDTF(f.eng, f.ins, "CREATE FUNC"); err == nil {
		t.Error("garbage accepted")
	}
	if err := RegisterSQLIntegrationUDTF(f.eng, f.ins, `CREATE FUNCTION Broken ()
		RETURNS TABLE (X INT) LANGUAGE SQL RETURN SELECT y FROM TABLE (NoFn()) AS z`); err == nil {
		t.Error("invalid body accepted")
	}
}

func TestGoIntegrationUDTF(t *testing.T) {
	f := newFixture(t)
	body := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		out := types.NewTable(types.Schema{{Name: "V", Type: types.Integer}})
		out.MustAppend(types.Row{types.NewInt(args[0].Int() * 2)})
		return out, nil
	}
	if err := RegisterGoIntegrationUDTF(f.eng, f.ins, "Doubler",
		[]types.Column{{Name: "N", Type: types.Integer}},
		types.Schema{{Name: "V", Type: types.Integer}}, body); err != nil {
		t.Fatal(err)
	}
	f.measure(t, "SELECT * FROM TABLE (Doubler(21)) AS d")
	hot, tab := f.measure(t, "SELECT * FROM TABLE (Doubler(21)) AS d")
	if tab.Rows[0][0].Int() != 42 {
		t.Fatalf("result:\n%s", tab)
	}
	if hot != f.profile.IUDTFStart+f.profile.IUDTFFinish {
		t.Errorf("hot Go I-UDTF = %v", hot)
	}
}

func TestWorkflowUDTF(t *testing.T) {
	f := newFixture(t)
	process := &wfms.Process{
		Name:   "QualOf",
		Input:  []types.Column{{Name: "SupplierNo", Type: types.Integer}},
		Output: types.Schema{{Name: "Qual", Type: types.Integer}},
		Nodes: []wfms.Node{
			&wfms.FunctionActivity{Name: "GQ", System: appsys.StockKeeping, Function: "GetQuality",
				Args: []wfms.Source{wfms.Input("SupplierNo")}},
		},
		Result: "GQ",
	}
	if err := RegisterWorkflowUDTF(f.eng, f.bridge, f.ins, process); err != nil {
		t.Fatal(err)
	}
	f.measure(t, "SELECT * FROM TABLE (QualOf(3)) AS q")
	hot, tab := f.measure(t, "SELECT * FROM TABLE (QualOf(3)) AS q")
	if tab.Len() != 1 || tab.Rows[0][0].Int() != int64(appsys.SupplierQuality(3)) {
		t.Fatalf("result:\n%s", tab)
	}
	p := f.profile
	want := p.UDTFStart + p.UDTFProcess + p.RMICall + p.ControllerInvokeWf + p.WfStart +
		p.WfNavigate + p.ActivityJVMBoot + p.ContainerHandling + appsys.DefaultServiceTime +
		p.RMIReturn + p.UDTFFinish
	if hot != want {
		t.Errorf("hot workflow UDTF = %v, want %v", hot, want)
	}
	// Invalid processes are rejected at registration.
	bad := &wfms.Process{Name: "bad"}
	if err := RegisterWorkflowUDTF(f.eng, f.bridge, f.ins, bad); err == nil {
		t.Error("invalid process accepted")
	}
}

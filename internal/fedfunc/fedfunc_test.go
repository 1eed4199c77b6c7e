package fedfunc

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"fedwf/internal/appsys"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
	"fedwf/internal/udtf"
	"fedwf/internal/wfms"
)

// rpcNewServer serves a registry over an ephemeral TCP port.
func rpcNewServer(t *testing.T, reg *appsys.Registry) *rpc.Server {
	t.Helper()
	srv := rpc.NewServer(reg.Handler())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv
}

func rpcDial(srv *rpc.Server) (rpc.Client, error) {
	return rpc.DialMux(srv.Addr().String())
}

func newStacks(t *testing.T) (*Stack, *Stack) {
	t.Helper()
	apps := appsys.MustBuildScenario()
	wf, err := NewStack(ArchWfMS, Options{Apps: apps})
	if err != nil {
		t.Fatalf("WfMS stack: %v", err)
	}
	ud, err := NewStack(ArchUDTF, Options{Apps: apps})
	if err != nil {
		t.Fatalf("UDTF stack: %v", err)
	}
	return wf, ud
}

// sortedRows canonicalises a table for order-insensitive comparison.
func sortedRows(tab *types.Table) []string {
	out := make([]string, len(tab.Rows))
	for i, r := range tab.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestArchitectureEquivalence is the central differential test: for every
// mapping both architectures support and every sample argument vector,
// the WfMS stack and the UDTF stack must return identical result sets.
func TestArchitectureEquivalence(t *testing.T) {
	wf, ud := newStacks(t)
	for _, spec := range Specs() {
		if !spec.SupportsUDTF() {
			continue
		}
		for i := range spec.SampleArgs {
			name := fmt.Sprintf("%s/sample%d", spec.Name, i)
			wfRes, err := wf.CallSpecContext(context.Background(), simlat.Free(), spec, i)
			if err != nil {
				t.Errorf("%s: WfMS: %v", name, err)
				continue
			}
			udRes, err := ud.CallSpecContext(context.Background(), simlat.Free(), spec, i)
			if err != nil {
				t.Errorf("%s: UDTF: %v", name, err)
				continue
			}
			w, u := sortedRows(wfRes), sortedRows(udRes)
			if len(w) != len(u) {
				t.Errorf("%s: WfMS %d rows, UDTF %d rows\nWfMS:\n%s\nUDTF:\n%s",
					name, len(w), len(u), wfRes, udRes)
				continue
			}
			for j := range w {
				if w[j] != u[j] {
					t.Errorf("%s: row %d differs: WfMS %s, UDTF %s", name, j, w[j], u[j])
				}
			}
		}
	}
}

// TestGoVariantEquivalence checks the enhanced Java (Go) UDTF realisations
// against the SQL ones.
func TestGoVariantEquivalence(t *testing.T) {
	_, ud := newStacks(t)
	for _, spec := range Specs() {
		if spec.GoBody == nil || !spec.SupportsUDTF() {
			continue
		}
		for i, args := range spec.SampleArgs {
			sqlRes, err := ud.CallContext(context.Background(), simlat.Free(), spec.Name, args)
			if err != nil {
				t.Errorf("%s sample %d (SQL): %v", spec.Name, i, err)
				continue
			}
			goRes, err := ud.CallContext(context.Background(), simlat.Free(), spec.Name+"_Go", args)
			if err != nil {
				t.Errorf("%s sample %d (Go): %v", spec.Name, i, err)
				continue
			}
			w, u := sortedRows(sqlRes), sortedRows(goRes)
			if strings.Join(w, "|") != strings.Join(u, "|") {
				t.Errorf("%s sample %d: SQL %v, Go %v", spec.Name, i, w, u)
			}
		}
	}
}

// TestCyclicOnlyInWfMSAndGo reproduces the Sect. 3 capability gap: the
// cyclic case runs under the WfMS and under the Go I-UDTF, but has no SQL
// realisation.
func TestCyclicOnlyInWfMSAndGo(t *testing.T) {
	wf, ud := newStacks(t)
	spec, err := SpecByName("AllCompNames")
	if err != nil {
		t.Fatal(err)
	}
	if spec.SupportsUDTF() {
		t.Fatal("cyclic case claims SQL support")
	}
	if ud.Supports("AllCompNames") {
		t.Error("UDTF stack claims to support the cyclic case")
	}
	if _, err := ud.CallContext(context.Background(), simlat.Free(), "AllCompNames", nil); err == nil {
		t.Error("UDTF stack executed the cyclic case")
	}
	wfRes, err := wf.CallContext(context.Background(), simlat.Free(), "AllCompNames", nil)
	if err != nil {
		t.Fatalf("WfMS cyclic case: %v", err)
	}
	if wfRes.Len() != appsys.NumComponents {
		t.Errorf("WfMS cyclic case returned %d rows, want %d", wfRes.Len(), appsys.NumComponents)
	}
	goRes, err := ud.CallContext(context.Background(), simlat.Free(), "AllCompNames_Go", nil)
	if err != nil {
		t.Fatalf("Go cyclic case: %v", err)
	}
	if strings.Join(sortedRows(goRes), "|") != strings.Join(sortedRows(wfRes), "|") {
		t.Error("Go and WfMS cyclic results differ")
	}
}

func TestSpecCatalog(t *testing.T) {
	specs := Specs()
	if len(specs) != 10 {
		t.Fatalf("catalog has %d specs", len(specs))
	}
	cases := make(map[Case]bool)
	for _, s := range specs {
		cases[s.Case] = true
		if s.Name == "" || s.Process == nil || len(s.SampleArgs) == 0 {
			t.Errorf("spec %+v incomplete", s)
		}
		if s.Case != CaseCyclic && s.SQLDefinition == "" {
			t.Errorf("spec %s missing SQL realisation", s.Name)
		}
		if p := s.Process(); p.Validate() != nil {
			t.Errorf("spec %s process invalid: %v", s.Name, p.Validate())
		}
	}
	for c := CaseTrivial; c <= CaseGeneral; c++ {
		if !cases[c] {
			t.Errorf("no spec covers case %s", c)
		}
	}
	if _, err := SpecByName("buysuppcomp"); err != nil {
		t.Errorf("case-insensitive lookup: %v", err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown spec lookup succeeded")
	}
}

func TestCaseStrings(t *testing.T) {
	want := map[Case]string{
		CaseTrivial:     "trivial",
		CaseSimple:      "simple",
		CaseIndependent: "independent",
		CaseLinear:      "dependent: linear",
		CaseOneToN:      "dependent: (1:n)",
		CaseNToOne:      "dependent: (n:1)",
		CaseCyclic:      "dependent: cyclic",
		CaseGeneral:     "general",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Case(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	if Case(99).String() != "unknown" {
		t.Error("unknown case string")
	}
	if ArchWfMS.String() == ArchUDTF.String() {
		t.Error("arch strings collide")
	}
}

// TestWfMSSlowerButSameOrder reproduces the headline of Fig. 5 at the
// stack level: for the general case the WfMS approach takes roughly three
// times as long as the UDTF approach.
func TestWfMSSlowerButSameOrder(t *testing.T) {
	wf, ud := newStacks(t)
	spec, _ := SpecByName("GetNoSuppComp")
	// Warm both stacks first (hot measurements).
	if _, err := wf.CallSpecContext(context.Background(), simlat.Free(), spec, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ud.CallSpecContext(context.Background(), simlat.Free(), spec, 0); err != nil {
		t.Fatal(err)
	}
	wfTask := simlat.NewVirtualTask()
	if _, err := wf.CallSpecContext(context.Background(), wfTask, spec, 0); err != nil {
		t.Fatal(err)
	}
	udTask := simlat.NewVirtualTask()
	if _, err := ud.CallSpecContext(context.Background(), udTask, spec, 0); err != nil {
		t.Fatal(err)
	}
	ratio := float64(wfTask.Elapsed()) / float64(udTask.Elapsed())
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("WfMS/UDTF ratio = %.2f (wf=%v ud=%v), want ~3",
			ratio, wfTask.Elapsed(), udTask.Elapsed())
	}
}

// TestParallelOrderingPerArchitecture reproduces the Sect. 4 observation:
// under the WfMS the parallel function (GetSuppQualRelia) is faster than
// the sequential one (GetSuppQual); under the UDTF approach the ordering
// is contrary.
func TestParallelOrderingPerArchitecture(t *testing.T) {
	wf, ud := newStacks(t)
	measure := func(s *Stack, name string, args []types.Value) float64 {
		if _, err := s.CallContext(context.Background(), simlat.Free(), name, args); err != nil { // warm
			t.Fatal(err)
		}
		task := simlat.NewVirtualTask()
		if _, err := s.CallContext(context.Background(), task, name, args); err != nil {
			t.Fatal(err)
		}
		return float64(task.Elapsed())
	}
	parArgs := []types.Value{types.NewInt(3)}
	seqArgs := []types.Value{types.NewString("Supplier3")}
	wfPar := measure(wf, "GetSuppQualRelia", parArgs)
	wfSeq := measure(wf, "GetSuppQual", seqArgs)
	udPar := measure(ud, "GetSuppQualRelia", parArgs)
	udSeq := measure(ud, "GetSuppQual", seqArgs)
	if wfPar >= wfSeq {
		t.Errorf("WfMS: parallel (%v) should beat sequential (%v)", wfPar, wfSeq)
	}
	if udPar <= udSeq {
		t.Errorf("UDTF: parallel (%v) should NOT beat sequential (%v)", udPar, udSeq)
	}
}

// TestBootStates reproduces E4's ordering: cold > warm > hot.
func TestBootStates(t *testing.T) {
	wf, _ := newStacks(t)
	spec, _ := SpecByName("GetSuppQual")
	measure := func() float64 {
		task := simlat.NewVirtualTask()
		if _, err := wf.CallSpecContext(context.Background(), task, spec, 0); err != nil {
			t.Fatal(err)
		}
		return float64(task.Elapsed())
	}
	wf.Flush(udtf.FlushCold)
	cold := measure()
	wf.Flush(udtf.FlushWarm)
	warm := measure()
	wf.Flush(udtf.FlushHot)
	hot := measure()
	if !(cold > warm && warm > hot) {
		t.Errorf("boot states not ordered: cold=%v warm=%v hot=%v", cold, warm, hot)
	}
}

// TestControllerAblation reproduces E7: removing the controller saves
// about 8% under the WfMS architecture and about 25% under the UDTF
// architecture, pushing their ratio from ~3 to ~3.7.
func TestControllerAblation(t *testing.T) {
	apps := appsys.MustBuildScenario()
	build := func(arch Arch, direct bool) *Stack {
		s, err := NewStack(arch, Options{Apps: apps, Direct: direct})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	spec, _ := SpecByName("GetNoSuppComp")
	measure := func(s *Stack) float64 {
		if _, err := s.CallSpecContext(context.Background(), simlat.Free(), spec, 0); err != nil {
			t.Fatal(err)
		}
		task := simlat.NewVirtualTask()
		if _, err := s.CallSpecContext(context.Background(), task, spec, 0); err != nil {
			t.Fatal(err)
		}
		return float64(task.Elapsed())
	}
	wfWith := measure(build(ArchWfMS, false))
	wfWithout := measure(build(ArchWfMS, true))
	udWith := measure(build(ArchUDTF, false))
	udWithout := measure(build(ArchUDTF, true))

	wfSaving := 1 - wfWithout/wfWith
	udSaving := 1 - udWithout/udWith
	if wfSaving < 0.05 || wfSaving > 0.11 {
		t.Errorf("WfMS controller saving = %.1f%%, want ~8%%", wfSaving*100)
	}
	if udSaving < 0.20 || udSaving > 0.30 {
		t.Errorf("UDTF controller saving = %.1f%%, want ~25%%", udSaving*100)
	}
	before := wfWith / udWith
	after := wfWithout / udWithout
	if !(after > before) || after < 3.3 || after > 4.1 {
		t.Errorf("ratio moved %.2f -> %.2f, want ~3 -> ~3.7", before, after)
	}
}

func TestRegisterProcess(t *testing.T) {
	wf, ud := newStacks(t)
	process := AllCompNamesProcess(appsys.NumComponents - 3)
	process.Name = "ThreeNames"
	if err := wf.RegisterProcess(process); err != nil {
		t.Fatal(err)
	}
	tab, err := wf.CallContext(context.Background(), simlat.Free(), "ThreeNames", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Errorf("registered process returned %d rows", tab.Len())
	}
	// Only WfMS stacks host processes.
	if err := ud.RegisterProcess(process); err == nil {
		t.Error("UDTF stack accepted a workflow process")
	}
	// Invalid processes are rejected.
	if err := wf.RegisterProcess(&wfms.Process{Name: "bad"}); err == nil {
		t.Error("invalid process accepted")
	}
}

func TestStackErrors(t *testing.T) {
	wf, _ := newStacks(t)
	if _, err := wf.CallContext(context.Background(), simlat.Free(), "NoSuchFn", nil); err == nil {
		t.Error("unknown federated function accepted")
	}
	spec, _ := SpecByName("GetSuppQual")
	if _, err := wf.CallSpecContext(context.Background(), simlat.Free(), spec, 99); err == nil {
		t.Error("bad sample index accepted")
	}
	if wf.Arch() != ArchWfMS {
		t.Error("arch accessor")
	}
	if wf.Engine() == nil {
		t.Error("engine accessor")
	}
	if wf.Profile() == (simlat.Profile{}) {
		t.Error("profile accessor")
	}
}

// TestRemoteAppsClient places the application systems behind a TCP
// endpoint (the distributed deployment) and checks that both stacks keep
// returning the same results through the wire.
func TestRemoteAppsClient(t *testing.T) {
	remote := appsys.MustBuildScenario()
	srv := rpcNewServer(t, remote)
	defer srv.Close()
	client, err := rpcDial(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	local := appsys.MustBuildScenario()
	for _, arch := range []Arch{ArchWfMS, ArchUDTF} {
		stack, err := NewStack(arch, Options{Apps: local, AppsClient: client})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		tab, err := stack.CallContext(context.Background(), simlat.Free(), "GetSuppQual", []types.Value{types.NewString("Supplier3")})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if tab.Len() != 1 || tab.Rows[0][0].Int() != int64(appsys.SupplierQuality(3)) {
			t.Errorf("%s over TCP:\n%s", arch, tab)
		}
	}
}

// TestStringArgumentsQuoted ensures federated function calls survive SQL
// metacharacters in string arguments.
func TestStringArgumentsQuoted(t *testing.T) {
	wf, ud := newStacks(t)
	args := []types.Value{types.NewString("o'brian -- DROP")}
	for _, s := range []*Stack{wf, ud} {
		tab, err := s.CallContext(context.Background(), simlat.Free(), "GetSuppQual", args)
		if err != nil {
			t.Errorf("%s: %v", s.Arch(), err)
			continue
		}
		if tab.Len() != 0 {
			t.Errorf("%s: unexpected rows:\n%s", s.Arch(), tab)
		}
	}
}

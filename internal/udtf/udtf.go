// Package udtf builds the user-defined table functions of the paper's two
// prototype architectures and charges their simulated costs:
//
//   - access UDTFs (A-UDTFs): one per local function; each call pays
//     prepare/finish overheads plus the hop to the controller;
//   - SQL integration UDTFs (I-UDTFs): CREATE FUNCTION ... LANGUAGE SQL
//     bodies composing A-UDTFs, the enhanced SQL UDTF architecture;
//   - Go integration UDTFs: host-coded bodies issuing as many statements
//     as needed, the enhanced Java UDTF architecture realised in Go;
//   - workflow UDTFs: one per federated function; the UDTF plays the
//     SQL/MED wrapper role and bridges to the WfMS via the controller.
//
// A shared Instrument tracks boot-state (cold / warm / hot, experiment
// E4): a cold environment pays a whole-system boot penalty on the next
// call and forgets every prepared statement; a warm one only forgets the
// prepared statements.
package udtf

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"fedwf/internal/catalog"
	"fedwf/internal/controller"
	"fedwf/internal/engine"
	"fedwf/internal/obs"
	"fedwf/internal/simlat"
	"fedwf/internal/sqlparser"
	"fedwf/internal/types"
	"fedwf/internal/wfms"
)

// BootLevel selects how much cached state a Flush discards.
type BootLevel int

// Boot levels of experiment E4.
const (
	// FlushHot discards nothing: the repeated-call steady state.
	FlushHot BootLevel = iota
	// FlushWarm discards per-function prepared state, as after some other
	// function was invoked and evicted this one's cached plan.
	FlushWarm
	// FlushCold models a reboot of the entire environment: prepared state
	// is gone, the controller must reconnect, and the next call pays the
	// system boot penalty.
	FlushCold
)

// Instrument charges boot-state penalties for one architecture stack.
type Instrument struct {
	profile simlat.Profile

	mu          sync.Mutex
	prepared    map[string]bool
	coldPending bool
}

// NewInstrument returns a hot instrument.
func NewInstrument(profile simlat.Profile) *Instrument {
	return &Instrument{profile: profile, prepared: make(map[string]bool)}
}

// Flush discards cached state down to the given level.
func (ins *Instrument) Flush(level BootLevel) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	switch level {
	case FlushCold:
		ins.coldPending = true
		ins.prepared = make(map[string]bool)
	case FlushWarm:
		ins.prepared = make(map[string]bool)
	}
}

// chargeEntry pays the pending boot and prepare penalties for a function.
// key is the function's lower-case name, folded once at registration.
func (ins *Instrument) chargeEntry(task *simlat.Task, key string) {
	ins.mu.Lock()
	cold := ins.coldPending
	ins.coldPending = false
	miss := !ins.prepared[key]
	ins.prepared[key] = true
	ins.mu.Unlock()
	if cold {
		task.Step("System boot", ins.profile.ColdBoot)
	}
	if miss {
		task.Step("Statement preparation", ins.profile.PrepareMiss)
	}
}

// RegisterAccessUDTF registers one A-UDTF wrapping a single local function
// of an application system. The schema mirrors the local function's
// signature.
func RegisterAccessUDTF(eng *engine.Engine, bridge *controller.Bridge, ins *Instrument,
	name, system, function string, params []types.Column, returns types.Schema) error {
	profile := ins.profile
	key := strings.ToLower(name)
	impl := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		sp := obs.StartSpan(task, "udtf.access", obs.Attr{Key: "fn", Value: name})
		defer sp.End(task)
		ins.chargeEntry(task, key)
		task.Step(simlat.StepPrepareAUDTF, profile.AUDTFPrepare)
		prev := task.SetLabel(simlat.StepLocalFunctions)
		out, err := bridge.CallFunction(ctx, task, system, function, args)
		task.SetLabel(prev)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		task.Step(simlat.StepFinishAUDTF, profile.AUDTFFinish)
		return out, nil
	}
	implBatch := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
		sp := obs.StartSpan(task, "udtf.access.batch",
			obs.Attr{Key: "fn", Value: name}, obs.Attr{Key: "batch_size", Value: strconv.Itoa(len(rows))})
		defer sp.End(task)
		// Entry, prepare, and finish are paid once for the whole set; the
		// hop to the controller carries every row in one request.
		ins.chargeEntry(task, key)
		task.Step(simlat.StepPrepareAUDTF, profile.AUDTFPrepare)
		prev := task.SetLabel(simlat.StepLocalFunctions)
		out, err := bridge.CallFunctionBatch(ctx, task, system, function, rows)
		task.SetLabel(prev)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		task.Step(simlat.StepFinishAUDTF, profile.AUDTFFinish)
		return out, nil
	}
	fn := &catalog.GoFunc{FName: name, FParams: params, FReturns: returns, FnCtx: impl, FnBatchCtx: implBatch}
	return eng.Catalog().RegisterFunc(fn)
}

// SetSQLBatchRealization installs a set-oriented realization on a
// registered SQL I-UDTF: the body receives all argument rows of a batch
// and answers one table per row, paying the I-UDTF entry and finish costs
// once for the whole set. The per-row SQL body remains the reference
// semantics for unbatched plans.
func SetSQLBatchRealization(eng *engine.Engine, ins *Instrument, name string, body GoBatchBody) error {
	fn, err := eng.Catalog().Func(name)
	if err != nil {
		return err
	}
	sqlFn, ok := fn.(*catalog.SQLFunc)
	if !ok {
		return fmt.Errorf("udtf: %s is not a SQL function", name)
	}
	profile := ins.profile
	key := strings.ToLower(name)
	sqlFn.BatchBody = func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
		sp := obs.StartSpan(task, "udtf.sql.batch",
			obs.Attr{Key: "fn", Value: name}, obs.Attr{Key: "batch_size", Value: strconv.Itoa(len(rows))})
		defer sp.End(task)
		ins.chargeEntry(task, key)
		task.Step(simlat.StepStartIUDTF, profile.IUDTFStart)
		out, err := body(ctx, rt, task, rows)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		task.Step(simlat.StepFinishIUDTF, profile.IUDTFFinish)
		return out, nil
	}
	return nil
}

// RegisterSQLIntegrationUDTF registers a SQL I-UDTF from its CREATE
// FUNCTION statement text and hooks the I-UDTF start/finish costs around
// its body, completing the enhanced SQL UDTF architecture's entry point.
func RegisterSQLIntegrationUDTF(eng *engine.Engine, ins *Instrument, createFunctionSQL string) error {
	stmt, err := sqlparser.Parse(createFunctionSQL)
	if err != nil {
		return err
	}
	create, ok := stmt.(*sqlparser.CreateFunction)
	if !ok {
		return fmt.Errorf("udtf: not a CREATE FUNCTION statement: %q", createFunctionSQL)
	}
	name := create.Name
	if _, err := eng.DeclareFunction(create); err != nil {
		return err
	}
	fn, err := eng.Catalog().Func(name)
	if err != nil {
		return err
	}
	sqlFn, ok := fn.(*catalog.SQLFunc)
	if !ok {
		return fmt.Errorf("udtf: %s is not a SQL function", name)
	}
	profile := ins.profile
	key := strings.ToLower(name)
	sqlFn.Around = func(task *simlat.Task, call catalog.SQLCall) (*types.Table, error) {
		sp := obs.StartSpan(task, "udtf.sql", obs.Attr{Key: "fn", Value: name})
		defer sp.End(task)
		ins.chargeEntry(task, key)
		task.Step(simlat.StepStartIUDTF, profile.IUDTFStart)
		out, err := call.Run()
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		task.Step(simlat.StepFinishIUDTF, profile.IUDTFFinish)
		return out, nil
	}
	return nil
}

// GoBody is the body of a Go integration UDTF: it may issue any number of
// nested queries through the runner, mirroring the enhanced Java UDTF
// architecture's JDBC calls against A-UDTFs. The context carries the
// statement's deadline into every nested query.
type GoBody func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error)

// GoBatchBody is the set-oriented form of GoBody: one call receives all
// argument rows of a batch and returns one table per row.
type GoBatchBody func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error)

// RegisterGoIntegrationUDTF registers a host-coded integration UDTF with
// the same entry costs as a SQL I-UDTF.
func RegisterGoIntegrationUDTF(eng *engine.Engine, ins *Instrument,
	name string, params []types.Column, returns types.Schema, body GoBody) error {
	profile := ins.profile
	key := strings.ToLower(name)
	impl := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		sp := obs.StartSpan(task, "udtf.go", obs.Attr{Key: "fn", Value: name})
		defer sp.End(task)
		ins.chargeEntry(task, key)
		task.Step(simlat.StepStartIUDTF, profile.IUDTFStart)
		out, err := body(ctx, rt, task, args)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		task.Step(simlat.StepFinishIUDTF, profile.IUDTFFinish)
		return out, nil
	}
	fn := &catalog.GoFunc{FName: name, FParams: params, FReturns: returns, FnCtx: impl}
	return eng.Catalog().RegisterFunc(fn)
}

// RegisterWorkflowUDTF registers the WfMS architecture's UDTF for one
// federated function: the UDTF plays the SQL/MED wrapper role, isolating
// the FDBS from the federated function execution and bridging to the
// workflow engine through the controller. The process input container
// fields are bound positionally from the UDTF parameters.
func RegisterWorkflowUDTF(eng *engine.Engine, bridge *controller.Bridge, ins *Instrument,
	process *wfms.Process) error {
	if err := process.Validate(); err != nil {
		return err
	}
	profile := ins.profile
	params := make([]types.Column, len(process.Input))
	copy(params, process.Input)
	// The process input container's fields, folded once.
	key := strings.ToLower(process.Name)
	fields := make([]string, len(params))
	for i, p := range params {
		fields[i] = strings.ToLower(p.Name)
	}
	impl := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, args []types.Value) (*types.Table, error) {
		sp := obs.StartSpan(task, "udtf.workflow", obs.Attr{Key: "fn", Value: process.Name})
		defer sp.End(task)
		ins.chargeEntry(task, key)
		task.Step(simlat.StepStartUDTF, profile.UDTFStart)
		task.Step(simlat.StepProcessUDTF, profile.UDTFProcess)
		input := make(map[string]types.Value, len(args))
		for i, f := range fields {
			input[f] = args[i]
		}
		out, err := bridge.RunWorkflow(ctx, task, process, input)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		task.Step(simlat.StepFinishUDTF, profile.UDTFFinish)
		return out, nil
	}
	implBatch := func(ctx context.Context, rt catalog.QueryRunner, task *simlat.Task, rows [][]types.Value) ([]*types.Table, error) {
		sp := obs.StartSpan(task, "udtf.workflow.batch",
			obs.Attr{Key: "fn", Value: process.Name}, obs.Attr{Key: "batch_size", Value: strconv.Itoa(len(rows))})
		defer sp.End(task)
		// The wrapper enters once for the whole set; the controller maps
		// the batch onto one process instance looping over the rows.
		ins.chargeEntry(task, key)
		task.Step(simlat.StepStartUDTF, profile.UDTFStart)
		task.Step(simlat.StepProcessUDTF, profile.UDTFProcess)
		inputs := make([]map[string]types.Value, len(rows))
		for r, args := range rows {
			input := make(map[string]types.Value, len(args))
			for i, f := range fields {
				input[f] = args[i]
			}
			inputs[r] = input
		}
		out, err := bridge.RunWorkflowBatch(ctx, task, process, inputs)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		task.Step(simlat.StepFinishUDTF, profile.UDTFFinish)
		return out, nil
	}
	fn := &catalog.GoFunc{FName: process.Name, FParams: params, FReturns: process.Output.Clone(), FnCtx: impl, FnBatchCtx: implBatch}
	return eng.Catalog().RegisterFunc(fn)
}

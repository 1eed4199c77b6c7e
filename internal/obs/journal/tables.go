package journal

import (
	"time"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// paperMS converts a virtual duration to paper milliseconds for the
// relational surfaces.
func paperMS(d time.Duration) float64 {
	return float64(d) / float64(simlat.PaperMS)
}

// EventsSchema is the relation schema of fed_audit_events. The row-index
// column goes by RowIdx (ROW is an SQL keyword), and the virtual-time
// columns carry paper milliseconds.
func EventsSchema() types.Schema {
	return types.Schema{
		{Name: "Seq", Type: types.BigInt},
		{Name: "Kind", Type: types.VarChar},
		{Name: "Trace", Type: types.VarChar},
		{Name: "Fingerprint", Type: types.VarCharN(16)},
		{Name: "Arch", Type: types.VarChar},
		{Name: "Func", Type: types.VarChar},
		{Name: "Class", Type: types.VarChar},
		{Name: "Instance", Type: types.VarChar},
		{Name: "Node", Type: types.VarChar},
		{Name: "Detail", Type: types.VarChar},
		{Name: "RowIdx", Type: types.BigInt},
		{Name: "Rows", Type: types.BigInt},
		{Name: "Batch", Type: types.BigInt},
		{Name: "Activities", Type: types.BigInt},
		{Name: "RPCs", Type: types.BigInt},
		{Name: "Instances", Type: types.BigInt},
		{Name: "Started_VT", Type: types.Double},
		{Name: "Dur_MS", Type: types.Double},
		{Name: "Err", Type: types.VarChar},
	}
}

// EventsTable materializes the live journal as a relation in ascending
// sequence order.
func (j *Journal) EventsTable() (*types.Table, error) {
	tab := types.NewTable(EventsSchema())
	for _, e := range j.Snapshot() {
		tab.MustAppend(types.Row{
			types.NewInt(int64(e.Seq)),
			types.NewString(string(e.Kind)),
			types.NewString(e.TraceID),
			types.NewString(e.Fingerprint),
			types.NewString(e.Arch),
			types.NewString(e.Func),
			types.NewString(e.Class),
			types.NewString(e.Instance),
			types.NewString(e.Node),
			types.NewString(e.Detail),
			types.NewInt(int64(e.Row)),
			types.NewInt(int64(e.Rows)),
			types.NewInt(int64(e.Batch)),
			types.NewInt(int64(e.Activities)),
			types.NewInt(e.RPCs),
			types.NewInt(e.Instances),
			types.NewFloat(paperMS(e.StartVT)),
			types.NewFloat(paperMS(e.DurVT)),
			types.NewString(e.Err),
		})
	}
	return tab, nil
}

// InstancesSchema is the relation schema of fed_wf_instances. Started_VT
// is the instance's absolute virtual start in paper milliseconds, so
// ORDER BY Started_VT DESC lists the newest instances first.
func InstancesSchema() types.Schema {
	return types.Schema{
		{Name: "Instance", Type: types.VarChar},
		{Name: "Process", Type: types.VarChar},
		{Name: "Batch", Type: types.BigInt},
		{Name: "Activities", Type: types.BigInt},
		{Name: "Rows", Type: types.BigInt},
		{Name: "Started_VT", Type: types.Double},
		{Name: "Dur_MS", Type: types.Double},
		{Name: "Err", Type: types.VarChar},
	}
}

// InstancesTable materializes the live wf_instance events as a relation.
func (j *Journal) InstancesTable() (*types.Table, error) {
	tab := types.NewTable(InstancesSchema())
	for _, e := range j.Snapshot() {
		if e.Kind != KindInstance {
			continue
		}
		tab.MustAppend(types.Row{
			types.NewString(e.Instance),
			types.NewString(e.Func),
			types.NewInt(int64(e.Batch)),
			types.NewInt(int64(e.Activities)),
			types.NewInt(int64(e.Rows)),
			types.NewFloat(paperMS(e.StartVT)),
			types.NewFloat(paperMS(e.DurVT)),
			types.NewString(e.Err),
		})
	}
	return tab, nil
}

// ActivitiesSchema is the relation schema of fed_wf_activities: one row
// per activity transition, joinable to fed_wf_instances on Instance.
func ActivitiesSchema() types.Schema {
	return types.Schema{
		{Name: "Instance", Type: types.VarChar},
		{Name: "Node", Type: types.VarChar},
		{Name: "Event", Type: types.VarChar},
		{Name: "RowIdx", Type: types.BigInt},
		{Name: "Rows", Type: types.BigInt},
		{Name: "At_VT", Type: types.Double},
	}
}

// ActivitiesTable materializes the live wf_activity events as a relation.
func (j *Journal) ActivitiesTable() (*types.Table, error) {
	tab := types.NewTable(ActivitiesSchema())
	for _, e := range j.Snapshot() {
		if e.Kind != KindActivity {
			continue
		}
		tab.MustAppend(types.Row{
			types.NewString(e.Instance),
			types.NewString(e.Node),
			types.NewString(e.Detail),
			types.NewInt(int64(e.Row)),
			types.NewInt(int64(e.Rows)),
			types.NewFloat(paperMS(e.StartVT)),
		})
	}
	return tab, nil
}

// SLOSchema is the relation schema of fed_slo: one row per sliding window
// of the burn-rate monitor, evaluated at the journal's current virtual
// instant (Now_VT, paper milliseconds) against the configured objectives.
func SLOSchema() types.Schema {
	return types.Schema{
		{Name: "Window", Type: types.VarChar},
		{Name: "Statements", Type: types.BigInt},
		{Name: "Errors", Type: types.BigInt},
		{Name: "Slow", Type: types.BigInt},
		{Name: "Availability_Burn", Type: types.Double},
		{Name: "Latency_Burn", Type: types.Double},
		{Name: "Error_Fraction", Type: types.Double},
		{Name: "Slow_Fraction", Type: types.Double},
		{Name: "Availability_Objective", Type: types.Double},
		{Name: "Latency_Objective_MS", Type: types.Double},
		{Name: "Now_VT", Type: types.Double},
	}
}

// SLOTable materializes the SLOReport as a relation, one row per window
// in Windows order.
func (j *Journal) SLOTable() (*types.Table, error) {
	rep := j.SLOReport()
	tab := types.NewTable(SLOSchema())
	for _, w := range rep.Windows {
		tab.MustAppend(types.Row{
			types.NewString(w.Window),
			types.NewInt(int64(w.Statements)),
			types.NewInt(int64(w.Errors)),
			types.NewInt(int64(w.Slow)),
			types.NewFloat(w.AvailBurn),
			types.NewFloat(w.LatencyBurn),
			types.NewFloat(w.ErrFraction),
			types.NewFloat(w.SlowFraction),
			types.NewFloat(rep.Objectives.Availability),
			types.NewFloat(paperMS(rep.Objectives.Latency)),
			types.NewFloat(paperMS(rep.NowVT)),
		})
	}
	return tab, nil
}

package fdbs

import (
	"fmt"
	"strings"
)

// The server describes itself only through the fed_* relations. These are
// the named statements its consoles send over the client protocol —
// fedsql's \stats, \audit and \wf meta-commands and fedtop's view — so
// both read the same columns. Each is served and recorded like any other
// statement.

// TopStatementsQuery lists the top n statements by total simulated time
// from the statement-statistics warehouse.
func TopStatementsQuery(n int) string {
	return fmt.Sprintf("SELECT Fingerprint, Calls, Rows, Errors, Total_MS, Mean_MS, P99_MS, Query FROM fed_stat_statements ORDER BY Total_MS DESC LIMIT %d", n)
}

// RecentEventsQuery lists the newest n audit-journal events, newest
// first.
func RecentEventsQuery(n int) string {
	return fmt.Sprintf("SELECT Seq, Kind, Func, Instance, Node, Detail, RowIdx, Rows, Started_VT, Dur_MS, Err FROM fed_audit_events ORDER BY Seq DESC LIMIT %d", n)
}

// JournalHeadQuery reads the journal's last sequence number and its live
// event count.
const JournalHeadQuery = "SELECT MAX(Seq), COUNT(*) FROM fed_audit_events"

// RecentInstancesQuery lists the newest n workflow instances, newest
// first.
func RecentInstancesQuery(n int) string {
	return fmt.Sprintf("SELECT Instance, Process, Batch, Activities, Rows, Started_VT, Dur_MS, Err FROM fed_wf_instances ORDER BY Started_VT DESC LIMIT %d", n)
}

// InstanceActivitiesQuery lists one workflow instance's per-activity
// history, oldest transition first.
func InstanceActivitiesQuery(instance string) string {
	return fmt.Sprintf("SELECT Node, Event, RowIdx, Rows, At_VT FROM fed_wf_activities WHERE Instance = %s ORDER BY At_VT", quote(instance))
}

// SLOQuery reads the burn-rate monitor, one row per window.
const SLOQuery = "SELECT Window, Statements, Errors, Slow, Availability_Burn, Latency_Burn, Availability_Objective, Latency_Objective_MS, Now_VT FROM fed_slo"

// TraceSpansQuery lists one retained trace's spans in preorder.
func TraceSpansQuery(trace string) string {
	return fmt.Sprintf("SELECT Span, Parent, Depth, Name, Start_MS, Elapsed_MS, Attrs, Steps FROM fed_spans WHERE Trace = %s ORDER BY Span", quote(trace))
}

// quote renders s as an SQL string literal.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

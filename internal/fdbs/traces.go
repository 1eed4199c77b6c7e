package fdbs

import (
	"strings"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/obs/collector"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// paperMS converts a virtual duration to paper milliseconds.
func paperMS(d time.Duration) float64 { return float64(d) / float64(simlat.PaperMS) }

// TracesSchema is the relation schema of fed_traces: one row per trace the
// collector retained. Paper_MS is the statement's simulated latency,
// Wall_MS its real serving time, and Spans the spans kept of its tree.
func TracesSchema() types.Schema {
	return types.Schema{
		{Name: "Trace", Type: types.VarChar},
		{Name: "Statement", Type: types.VarChar},
		{Name: "Arch", Type: types.VarChar},
		{Name: "Err", Type: types.VarChar},
		{Name: "Forced", Type: types.Boolean},
		{Name: "Paper_MS", Type: types.Double},
		{Name: "Wall_MS", Type: types.Double},
		{Name: "Spans", Type: types.BigInt},
	}
}

// TracesTable materializes c's retained traces as a relation, newest
// first. It decodes no span tree.
func TracesTable(c *collector.Collector) (*types.Table, error) {
	tab := types.NewTable(TracesSchema())
	for _, t := range c.Retained() {
		tab.MustAppend(types.Row{
			types.NewString(t.ID),
			types.NewString(t.Statement),
			types.NewString(t.Arch),
			types.NewString(t.Error),
			types.NewBool(t.Forced),
			types.NewFloat(paperMS(t.Paper)),
			types.NewFloat(float64(t.Wall) / float64(time.Millisecond)),
			types.NewInt(int64(t.Spans)),
		})
	}
	return tab, nil
}

// SpansSchema is the relation schema of fed_spans: one row per span of
// each retained trace. Span is the span's preorder index within its trace
// (the root is 0) and Parent its parent's, -1 for the root. Start_MS and
// Elapsed_MS are paper milliseconds on the statement's virtual clock, so
// the root's Elapsed_MS is the statement's paper latency. Attrs holds the
// span's key=value attributes and Steps its step attribution, both in the
// form obs.RenderData prints.
func SpansSchema() types.Schema {
	return types.Schema{
		{Name: "Trace", Type: types.VarChar},
		{Name: "Span", Type: types.BigInt},
		{Name: "Parent", Type: types.BigInt},
		{Name: "Depth", Type: types.BigInt},
		{Name: "Name", Type: types.VarChar},
		{Name: "Start_MS", Type: types.Double},
		{Name: "Elapsed_MS", Type: types.Double},
		{Name: "Attrs", Type: types.VarChar},
		{Name: "Steps", Type: types.VarChar},
	}
}

// SpansTable materializes the spans of c's retained traces as a relation,
// newest trace first and each tree in preorder. It decodes every kept
// tree, so its cost is paid by the reader.
func SpansTable(c *collector.Collector) (*types.Table, error) {
	tab := types.NewTable(SpansSchema())
	for _, t := range c.Retained() {
		root, err := t.Tree()
		if err != nil {
			return nil, err
		}
		id := types.NewString(t.ID)
		var next int64
		var walk func(d *obs.SpanData, parent, depth int64)
		walk = func(d *obs.SpanData, parent, depth int64) {
			span := next
			next++
			attrs := make([]string, len(d.Attrs))
			for i, a := range d.Attrs {
				attrs[i] = a.String()
			}
			tab.MustAppend(types.Row{
				id,
				types.NewInt(span),
				types.NewInt(parent),
				types.NewInt(depth),
				types.NewString(d.Name),
				types.NewFloat(paperMS(time.Duration(d.StartNS))),
				types.NewFloat(paperMS(time.Duration(d.ElapsedNS))),
				types.NewString(strings.Join(attrs, " ")),
				types.NewString(obs.FormatSteps(d.Steps)),
			})
			for _, ch := range d.Children {
				walk(ch, span, depth+1)
			}
		}
		if root != nil {
			walk(root, -1, 0)
		}
	}
	return tab, nil
}

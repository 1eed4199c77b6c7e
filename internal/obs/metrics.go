package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry holds metric families and writes them in Prometheus text
// exposition format. All constructors are idempotent per (name, type,
// labels): asking twice returns the same family.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name       string
	help       string
	typ        string // "counter" | "gauge" | "histogram"
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
	keys   []string
}

type series struct {
	labelValues []string

	mu    sync.Mutex
	value float64        // counter/gauge
	read  func() float64 // gauge set by ReadFrom: computes the value
	count uint64         // histogram
	sum   float64        // histogram
	bkts  []uint64       // histogram: cumulative per upper bound
	upper []float64      // histogram: shared bucket bounds
}

func (r *Registry) family(name, help, typ string, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type or labels", name))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labelNames: labelNames, buckets: buckets, series: make(map[string]*series)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func (f *family) with(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	// The key joins the values with NULs in a stack buffer, so finding a
	// known series allocates nothing; only a new series makes its key.
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[string(key)]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.typ == "histogram" {
			s.upper = f.buckets
			s.bkts = make([]uint64, len(f.buckets))
		}
		k := string(key)
		f.series[k] = s
		f.keys = append(f.keys, k)
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative values are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.value += v
	c.s.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil || c.s == nil {
		return 0
	}
	return c.s.scalar()
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.mu.Lock()
	g.s.value += v
	g.s.mu.Unlock()
}

// ReadFrom makes the gauge compute its value when read: Value and
// WritePrometheus call fn, outside the series lock, instead of reporting
// what Set and Add stored. It suits a gauge that restates state kept
// elsewhere, which then needs no update on the hot path.
func (g *Gauge) ReadFrom(fn func() float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.mu.Lock()
	g.s.read = fn
	g.s.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil || g.s == nil {
		return 0
	}
	return g.s.scalar()
}

// scalar is a counter's or gauge's value, computed by its read function
// when it has one.
func (s *series) scalar() float64 {
	s.mu.Lock()
	v, read := s.value, s.read
	s.mu.Unlock()
	if read != nil {
		return read()
	}
	return v
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct{ s *series }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	h.s.mu.Lock()
	h.s.count++
	h.s.sum += v
	for i, ub := range h.s.upper {
		if v <= ub {
			h.s.bkts[i]++
		}
	}
	h.s.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil || h.s == nil {
		return 0
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil || h.s == nil {
		return 0
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.sum
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.with(values)}
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.f.with(values)}
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{s: v.f.with(values)}
}

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter", labelNames, nil)}
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, "gauge", labelNames, nil)}
}

// Histogram registers (or finds) an unlabelled histogram with the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or finds) a histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, "histogram", labelNames, append([]float64(nil), buckets...))}
}

// LatencyBuckets are the default PaperMS buckets for query latency: wide
// enough to separate the UDTF architecture (tens of ms) from the WfMS
// architecture (hundreds of ms) per the paper's 3x result.
var LatencyBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// WritePrometheus writes every family in registration order, series in
// creation order, in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, n := range order {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		f.mu.Unlock()
		for _, key := range keys {
			f.mu.Lock()
			s := f.series[key]
			f.mu.Unlock()
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	base := labelString(f.labelNames, s.labelValues, "", "")
	if f.typ != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, base, formatFloat(s.scalar()))
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ub := range s.upper {
		le := formatFloat(ub)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labelValues, "le", le), s.bkts[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labelValues, "le", "+Inf"), s.count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(s.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, s.count)
	return err
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (used for histogram "le"); it returns "" when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

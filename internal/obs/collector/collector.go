// Package collector is the server-side trace store behind the /traces
// endpoints: a bounded in-memory ring buffer of completed traces with
// tail-based sampling. The decision to keep a trace is made after it
// finishes ("tail" sampling), so the retention rules can look at what
// actually happened: error traces and slow traces are always kept, traces
// the client explicitly asked for (fedsql \trace) are always kept, and the
// healthy fast majority is sampled probabilistically.
package collector

import (
	"math/rand"
	"strings"
	"sync"
	"time"

	"fedwf/internal/obs"
	"fedwf/internal/simlat"
)

// Policy is the collector's retention configuration. The zero value means
// "use the default": Default() fills unset fields. To disable
// probabilistic retention entirely (tests), set SampleRate negative.
type Policy struct {
	// Capacity is the number of ring-buffer slots (default 512).
	Capacity int
	// MaxTraceBytes caps each stored span tree's JSON encoding; deeper
	// levels are pruned until the tree fits (default 128 KiB).
	MaxTraceBytes int
	// LatencyThreshold retains every trace whose paper latency reaches it
	// (default 250 paper-ms).
	LatencyThreshold time.Duration
	// SampleRate is the probability of retaining a fast, healthy,
	// unforced trace (default 0.05; negative disables).
	SampleRate float64
	// Seed seeds the sampler's deterministic source; zero uses a fixed
	// default seed, so two collectors fed the same trace sequence always
	// retain the same traces (reproducible daemon runs). Set a nonzero
	// value to get a different — still deterministic — sampling sequence.
	Seed int64
}

// defaultSeed seeds the sampler when Policy.Seed is zero. Any fixed value
// works; what matters is that no collector ever seeds from the wall
// clock, which would make daemon trace retention unreproducible.
const defaultSeed = 0x5eedfed5

// Default returns pol with unset fields filled in.
func Default(pol Policy) Policy {
	if pol.Capacity <= 0 {
		pol.Capacity = 512
	}
	if pol.MaxTraceBytes <= 0 {
		pol.MaxTraceBytes = 128 << 10
	}
	if pol.LatencyThreshold <= 0 {
		pol.LatencyThreshold = 250 * simlat.PaperMS
	}
	if pol.SampleRate == 0 {
		pol.SampleRate = 0.05
	}
	return pol
}

// Meta is what the collector keeps of a retained trace besides its span
// tree — the statement and how it ended — and the JSON form /traces
// serves it in.
type Meta struct {
	ID        string        `json:"id"`
	Statement string        `json:"statement"`
	Arch      string        `json:"arch,omitempty"`
	Error     string        `json:"error,omitempty"`
	Forced    bool          `json:"forced,omitempty"`
	Paper     time.Duration `json:"paper_ns"`
	Wall      time.Duration `json:"wall_ns"`
}

// Trace is one stored trace as Get returns it, with its span tree decoded.
type Trace struct {
	Meta
	Root *obs.SpanData `json:"root,omitempty"`
}

// stored is one ring slot. The span tree stays in obs's compact encoding —
// one pointer-free byte slice — until Get decodes it.
type stored struct {
	Meta
	tree  []byte // obs.EncodeTrace's form
	spans int    // spans in tree, counted at retention
}

// Summary is the listing form of a trace (no span tree).
type Summary struct {
	ID        string  `json:"id"`
	Statement string  `json:"statement"`
	Arch      string  `json:"arch,omitempty"`
	Error     string  `json:"error,omitempty"`
	PaperMS   float64 `json:"paper_ms"`
	WallMS    float64 `json:"wall_ms"`
	Spans     int     `json:"spans"`
}

// Collector is a concurrency-safe bounded trace store.
type Collector struct {
	pol Policy

	mu   sync.Mutex
	ring []*stored // newest at (next-1+len)%len, nil while filling
	next int
	rnd  *rand.Rand

	offered  *obs.Counter
	retained *obs.Counter
	dropped  *obs.Counter
	evicted  *obs.Counter
	fnLat    *obs.HistogramVec
}

// New builds a collector. reg may be nil (no metrics); the retention
// counters and the per-federated-function latency histogram register
// there otherwise.
func New(pol Policy, reg *obs.Registry) *Collector {
	c := &Collector{pol: Default(pol)}
	c.ring = make([]*stored, c.pol.Capacity)
	seed := c.pol.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	c.rnd = rand.New(rand.NewSource(seed))
	if reg != nil {
		c.offered = reg.Counter("fedwf_traces_offered_total", "Traces offered to the collector.")
		c.retained = reg.Counter("fedwf_traces_retained_total", "Traces retained by tail sampling.")
		c.dropped = reg.Counter("fedwf_traces_sampled_out_total", "Traces dropped by tail sampling.")
		c.evicted = reg.Counter("fedwf_traces_evicted_total", "Retained traces later evicted by ring-buffer wraparound.")
		c.fnLat = reg.HistogramVec("fedwf_fedfunc_latency_paper_ms",
			"Per-federated-function latency in paper milliseconds, from trace spans.", obs.LatencyBuckets, "fn")
	}
	return c
}

// Policy returns the effective (default-filled) policy.
func (c *Collector) Policy() Policy { return c.pol }

// Offer hands the collector a finished statement: its trace is the span
// tree at st.Root, whose federated calls are st.Calls. It reports whether
// tail sampling retained the trace. The per-federated-function histograms
// observe every offered trace, retained or not, so sampling does not bias
// them; a dropped trace costs nothing else. A retained tree is pruned to
// Policy.MaxTraceBytes and encoded into one allocation.
func (c *Collector) Offer(st *obs.Statement) bool {
	if c == nil {
		return false
	}
	c.offered.Inc()
	if c.fnLat != nil {
		for _, fc := range st.Calls {
			c.fnLat.With(fc.Fn).Observe(float64(fc.Elapsed) / float64(simlat.PaperMS))
		}
	}
	keep := st.Err != "" || st.Forced || st.Paper >= c.pol.LatencyThreshold
	if !keep && c.pol.SampleRate > 0 {
		keep = c.randFloat() < c.pol.SampleRate
	}
	if !keep {
		c.dropped.Inc()
		return false
	}
	kept := &stored{Meta: Meta{ID: st.TraceID, Statement: st.SQL, Arch: st.Arch, Error: st.Err,
		Forced: st.Forced, Paper: st.Paper, Wall: st.Wall}}
	kept.tree, kept.spans = obs.EncodeTrace(st.Root, c.pol.MaxTraceBytes)
	c.mu.Lock()
	if c.ring[c.next] != nil {
		c.evicted.Inc()
	}
	c.ring[c.next] = kept
	c.next = (c.next + 1) % len(c.ring)
	c.mu.Unlock()
	c.retained.Inc()
	return true
}

// randFloat draws from the collector's seeded source (always non-nil).
func (c *Collector) randFloat() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rnd.Float64()
}

// Get returns a stored trace by ID, with its span tree decoded, or nil.
func (c *Collector) Get(id string) *Trace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var found *stored
	for _, t := range c.ring {
		if t != nil && t.ID == id {
			found = t
			break
		}
	}
	c.mu.Unlock()
	if found == nil {
		return nil
	}
	// A slot never changes once it is in the ring, so it decodes unlocked.
	out := &Trace{Meta: found.Meta}
	out.Root, _ = obs.DecodeTrace(found.tree) // the collector's own encoding
	return out
}

// Filter restricts List output.
type Filter struct {
	// Statement keeps traces whose statement contains this substring
	// (case-insensitive).
	Statement string
	// ErrorsOnly keeps only failed traces.
	ErrorsOnly bool
	// MinPaper keeps traces at or above this paper latency.
	MinPaper time.Duration
	// Limit caps the result count (0 = no cap).
	Limit int
}

// List summarizes the retained traces newest-first, filtered. It decodes
// no span tree: Get does.
func (c *Collector) List(f Filter) []Summary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ordered := make([]*stored, 0, len(c.ring))
	for i := 1; i <= len(c.ring); i++ { // newest first: walk backwards from next-1
		t := c.ring[(c.next-i+len(c.ring))%len(c.ring)]
		if t != nil {
			ordered = append(ordered, t)
		}
	}
	c.mu.Unlock()
	stmt := strings.ToLower(f.Statement)
	out := make([]Summary, 0, len(ordered))
	for _, t := range ordered {
		if f.ErrorsOnly && t.Error == "" {
			continue
		}
		if stmt != "" && !strings.Contains(strings.ToLower(t.Statement), stmt) {
			continue
		}
		if t.Paper < f.MinPaper {
			continue
		}
		out = append(out, Summary{
			ID:        t.ID,
			Statement: t.Statement,
			Arch:      t.Arch,
			Error:     t.Error,
			PaperMS:   float64(t.Paper) / float64(simlat.PaperMS),
			WallMS:    float64(t.Wall) / float64(time.Millisecond),
			Spans:     t.spans,
		})
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Len returns the number of retained traces currently stored.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.ring {
		if t != nil {
			n++
		}
	}
	return n
}

// Package collector is the server-side trace store behind the fed_traces
// and fed_spans relations: a bounded in-memory ring buffer of completed
// traces with tail-based sampling. The decision to keep a trace is made
// after it finishes ("tail" sampling), so the retention rules can look at what
// actually happened: error traces and slow traces are always kept, traces
// the client explicitly asked for (fedsql \trace) are always kept, and the
// healthy fast majority is sampled probabilistically.
package collector

import (
	"math/rand"
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
	// MaxTraceBytes caps each stored span tree's obs.EncodeTrace bytes;
	// deeper levels are pruned until the tree fits (default 128 KiB).
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
// tree: the statement and how it ended.
type Meta struct {
	ID        string
	Statement string
	Arch      string
	Error     string
	Forced    bool
	Paper     time.Duration
	Wall      time.Duration
}

// Trace is one stored trace as Get returns it, with its span tree decoded.
type Trace struct {
	Meta
	Root *obs.SpanData
}

// Kept is one retained trace, one ring slot. The span tree stays in obs's
// compact encoding — one pointer-free byte slice — until Tree decodes it.
type Kept struct {
	Meta
	Spans int    // spans in the tree, counted at retention
	tree  []byte // obs.EncodeTrace's form
}

// Tree decodes the kept span tree.
func (k *Kept) Tree() (*obs.SpanData, error) { return obs.DecodeTrace(k.tree) }

// Collector is a concurrency-safe bounded trace store.
type Collector struct {
	pol Policy

	mu   sync.Mutex
	ring []*Kept // newest at (next-1+len)%len, nil while filling
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
	c.ring = make([]*Kept, c.pol.Capacity)
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
	kept := &Kept{Meta: Meta{ID: st.TraceID, Statement: st.SQL, Arch: st.Arch, Error: st.Err,
		Forced: st.Forced, Paper: st.Paper, Wall: st.Wall}}
	kept.tree, kept.Spans = obs.EncodeTrace(st.Root, c.pol.MaxTraceBytes)
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

// Retained returns the retained traces, newest first, decoding none. A
// slot never changes once it is in the ring, so they are read unlocked.
func (c *Collector) Retained() []*Kept {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Kept, 0, len(c.ring))
	for i := 1; i <= len(c.ring); i++ { // newest first: walk backwards from next-1
		if t := c.ring[(c.next-i+len(c.ring))%len(c.ring)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Get returns a stored trace by ID, with its span tree decoded, or nil.
func (c *Collector) Get(id string) *Trace {
	for _, t := range c.Retained() {
		if t.ID == id {
			out := &Trace{Meta: t.Meta}
			out.Root, _ = t.Tree() // the collector's own encoding
			return out
		}
	}
	return nil
}

// Len returns the number of retained traces currently stored.
func (c *Collector) Len() int { return len(c.Retained()) }

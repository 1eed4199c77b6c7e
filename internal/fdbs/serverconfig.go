// ServerConfig consolidates every serving knob of the integration server
// binary — listener, architecture, engine tuning, observability, fault
// tolerance, chaos injection, and admission control — into one validated
// struct. It hydrates from a JSON file, from command-line flags, or both
// (flags override the file), replacing the two dozen loose flag variables
// the server binary used to thread around.
package fdbs

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/obs/collector"
	"fedwf/internal/resil"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
)

// ServerConfig is the complete configuration of one integration-server
// process. Durations on the paper's simulated clock are expressed in
// paper milliseconds (the *MS fields); Grace and BreakerOpen are wall
// durations serialized as millisecond numbers in JSON.
type ServerConfig struct {
	// Addr is the client-protocol listen address.
	Addr string `json:"addr"`
	// Arch picks the integration architecture: "wfms" or "udtf".
	Arch string `json:"arch"`
	// Direct bypasses the controller (ablation configuration).
	Direct bool `json:"direct"`
	// DOP is the intra-query degree of parallelism (0 = sequential,
	// -1 = GOMAXPROCS) every served statement's session starts from.
	DOP int `json:"dop"`
	// BatchSize chunks lateral invocations into set-oriented federated
	// calls of this many rows (0 or 1 = per-row); every served statement's
	// session starts from it.
	BatchSize int `json:"batch_size"`
	// MetricsAddr is the HTTP listen address for /metrics and /healthz
	// (empty = disabled).
	MetricsAddr string `json:"metrics_addr"`
	// Pprof mounts net/http/pprof on the metrics listener.
	Pprof bool `json:"pprof"`
	// SlowQueryMS logs statements at or above this simulated latency in
	// paper ms (0 = disabled).
	SlowQueryMS float64 `json:"slow_query_ms"`
	// GraceMS is the shutdown grace period for draining in-flight
	// statements, in wall milliseconds.
	GraceMS float64 `json:"grace_ms"`

	// TraceCapacity is the trace collector's ring-buffer size (0 = default).
	TraceCapacity int `json:"trace_capacity"`
	// TraceSample is the tail-sampling rate for fast healthy traces
	// (0 = default, negative = off).
	TraceSample float64 `json:"trace_sample"`
	// TraceSlowMS always retains traces at or above this paper latency
	// (0 = default).
	TraceSlowMS float64 `json:"trace_slow_ms"`

	// StmtTimeoutMS is the per-statement deadline in paper ms (0 =
	// disabled; SET STATEMENT_TIMEOUT overrides per session).
	StmtTimeoutMS float64 `json:"stmt_timeout_ms"`
	// RetryAttempts caps attempts per application-system call (0 or 1 =
	// no retries).
	RetryAttempts int `json:"retry_attempts"`
	// RetryBackoffMS is the initial retry backoff in paper ms.
	RetryBackoffMS float64 `json:"retry_backoff_ms"`
	// RetryBudget bounds retries per statement across all calls.
	RetryBudget int `json:"retry_budget"`
	// BreakerFailures is the consecutive-failure threshold tripping a
	// system's circuit breaker (0 = disabled).
	BreakerFailures int `json:"breaker_failures"`
	// BreakerOpenMS is how long an open breaker rejects calls before
	// probing, in wall milliseconds.
	BreakerOpenMS float64 `json:"breaker_open_ms"`
	// PartialResults degrades optional lateral branches to NULL padding
	// while a breaker is open.
	PartialResults bool `json:"partial_results"`

	// FaultSeed enables deterministic fault injection (0 = off).
	FaultSeed uint64 `json:"fault_seed"`
	// FaultRate is the transient error probability per call with FaultSeed.
	FaultRate float64 `json:"fault_rate"`

	// AuditOut mirrors every journal event to this JSONL file.
	AuditOut string `json:"audit_out"`
	// SLOAvailability is the availability objective for burn rates
	// (0 = default).
	SLOAvailability float64 `json:"slo_availability"`
	// SLOLatencyMS is the latency objective in paper ms (0 = default).
	SLOLatencyMS float64 `json:"slo_latency_ms"`

	// MaxSessionsPerTenant caps concurrently open sessions per tenant
	// (0 = unlimited).
	MaxSessionsPerTenant int `json:"max_sessions_per_tenant"`
	// MaxConcurrentPerTenant caps concurrently executing statements per
	// tenant (0 = unlimited).
	MaxConcurrentPerTenant int `json:"max_concurrent_per_tenant"`
	// AdmissionQueueDepth bounds the per-tenant FIFO behind the
	// concurrency cap; beyond it statements are shed.
	AdmissionQueueDepth int `json:"admission_queue_depth"`
}

// DefaultServerConfig returns the configuration the server binary runs
// with when nothing is specified.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Addr:           "127.0.0.1:4711",
		Arch:           "wfms",
		GraceMS:        5000,
		RetryBackoffMS: 5,
		RetryBudget:    16,
		BreakerOpenMS:  30000,
	}
}

// RegisterFlags registers one flag per field on fs, writing into c. Flag
// names match the server binary's historical flags (-grace and
// -breaker-open still parse Go durations).
func (c *ServerConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	fs.StringVar(&c.Arch, "arch", c.Arch, "integration architecture: wfms or udtf")
	fs.BoolVar(&c.Direct, "direct", c.Direct, "bypass the controller (ablation configuration)")
	fs.IntVar(&c.DOP, "dop", c.DOP, "intra-query degree of parallelism (0 = sequential, -1 = GOMAXPROCS); every statement runs in a new session that starts from it")
	fs.IntVar(&c.BatchSize, "batch-size", c.BatchSize, "set-oriented federated calls: chunk lateral invocations into batches of this many rows (0 or 1 = per-row); every statement runs in a new session that starts from it")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", c.MetricsAddr, "HTTP listen address for /metrics and /healthz (empty = disabled)")
	fs.BoolVar(&c.Pprof, "pprof", c.Pprof, "mount net/http/pprof under /debug/pprof/ on the metrics listener")
	fs.Float64Var(&c.SlowQueryMS, "slow-query-ms", c.SlowQueryMS, "log statements at or above this simulated latency in paper ms (0 = disabled)")
	fs.Func("grace", "shutdown grace period for draining in-flight statements (Go duration)", func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		c.GraceMS = float64(d) / float64(time.Millisecond)
		return nil
	})
	fs.IntVar(&c.TraceCapacity, "trace-capacity", c.TraceCapacity, "trace collector ring-buffer slots (0 = default 512)")
	fs.Float64Var(&c.TraceSample, "trace-sample", c.TraceSample, "tail-sampling rate for fast healthy traces (0 = default 0.05, negative = off)")
	fs.Float64Var(&c.TraceSlowMS, "trace-slow-ms", c.TraceSlowMS, "always retain traces at or above this paper latency in ms (0 = default 250)")
	fs.Float64Var(&c.StmtTimeoutMS, "stmt-timeout-ms", c.StmtTimeoutMS, "per-statement deadline in paper ms (0 = disabled; SET STATEMENT_TIMEOUT overrides per session)")
	fs.IntVar(&c.RetryAttempts, "retry-attempts", c.RetryAttempts, "max attempts per application-system call (0 or 1 = no retries)")
	fs.Float64Var(&c.RetryBackoffMS, "retry-backoff-ms", c.RetryBackoffMS, "initial retry backoff in paper ms (doubles per retry)")
	fs.IntVar(&c.RetryBudget, "retry-budget", c.RetryBudget, "per-statement retry budget across all calls (0 = unlimited)")
	fs.IntVar(&c.BreakerFailures, "breaker-failures", c.BreakerFailures, "consecutive failures tripping a system's circuit breaker (0 = breaker disabled)")
	fs.Func("breaker-open", "how long an open breaker rejects calls before probing (Go duration, wall clock)", func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		c.BreakerOpenMS = float64(d) / float64(time.Millisecond)
		return nil
	})
	fs.BoolVar(&c.PartialResults, "partial-results", c.PartialResults, "degrade optional lateral branches to NULL padding while a breaker is open")
	fs.Uint64Var(&c.FaultSeed, "fault-seed", c.FaultSeed, "enable deterministic fault injection with this seed (chaos testing)")
	fs.Float64Var(&c.FaultRate, "fault-rate", c.FaultRate, "with -fault-seed: transient error probability per application-system call")
	fs.StringVar(&c.AuditOut, "audit-out", c.AuditOut, "mirror every audit-journal event to this JSONL file (flushed on graceful shutdown)")
	fs.Float64Var(&c.SLOAvailability, "slo-availability", c.SLOAvailability, "availability objective for SLO burn rates, e.g. 0.995 (0 = default)")
	fs.Float64Var(&c.SLOLatencyMS, "slo-latency-ms", c.SLOLatencyMS, "per-statement latency objective in paper ms for SLO burn rates (0 = default)")
	fs.IntVar(&c.MaxSessionsPerTenant, "max-sessions-per-tenant", c.MaxSessionsPerTenant, "cap on concurrently open sessions per tenant (0 = unlimited)")
	fs.IntVar(&c.MaxConcurrentPerTenant, "max-concurrent-per-tenant", c.MaxConcurrentPerTenant, "cap on concurrently executing statements per tenant (0 = unlimited)")
	fs.IntVar(&c.AdmissionQueueDepth, "admission-queue-depth", c.AdmissionQueueDepth, "bounded per-tenant admission queue behind the concurrency cap; beyond it statements are shed")
}

// LoadFile hydrates c from a JSON file. Unknown keys are an error, so a
// typo'd knob fails loudly instead of silently running with defaults.
func (c *ServerConfig) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	return nil
}

// Validate rejects configurations the server cannot run.
func (c *ServerConfig) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("config: addr must not be empty")
	}
	switch strings.ToLower(c.Arch) {
	case "wfms", "udtf":
	default:
		return fmt.Errorf("config: unknown architecture %q (want wfms or udtf)", c.Arch)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"trace_sample", c.TraceSample}, {"fault_rate", c.FaultRate}, {"slo_availability", c.SLOAvailability}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("config: %s must be a finite number, got %v", f.name, f.v)
		}
	}
	if c.TraceSample > 1 {
		return fmt.Errorf("config: trace_sample %.3f > 1", c.TraceSample)
	}
	if c.FaultRate < 0 || c.FaultRate > 1 {
		return fmt.Errorf("config: fault_rate %.3f outside [0, 1]", c.FaultRate)
	}
	if c.FaultRate > 0 && c.FaultSeed == 0 {
		return fmt.Errorf("config: fault_rate needs fault_seed")
	}
	if c.SLOAvailability < 0 || c.SLOAvailability >= 1 {
		if c.SLOAvailability != 0 {
			return fmt.Errorf("config: slo_availability %.4f outside (0, 1)", c.SLOAvailability)
		}
	}
	// Every *MS field becomes a time.Duration in milliseconds (paper or
	// wall), so it must be a finite, non-negative number of them that fits.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"slow_query_ms", c.SlowQueryMS}, {"grace_ms", c.GraceMS},
		{"stmt_timeout_ms", c.StmtTimeoutMS}, {"retry_backoff_ms", c.RetryBackoffMS},
		{"breaker_open_ms", c.BreakerOpenMS}, {"trace_slow_ms", c.TraceSlowMS},
		{"slo_latency_ms", c.SLOLatencyMS},
	} {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return fmt.Errorf("config: %s must be a finite number, got %v", f.name, f.v)
		case f.v < 0:
			return fmt.Errorf("config: %s must not be negative", f.name)
		case f.v*float64(time.Millisecond) >= math.MaxInt64:
			return fmt.Errorf("config: %s %g ms overflows a duration", f.name, f.v)
		}
	}
	for name, v := range map[string]int{
		"retry_attempts": c.RetryAttempts, "retry_budget": c.RetryBudget,
		"breaker_failures": c.BreakerFailures, "trace_capacity": c.TraceCapacity,
		"max_sessions_per_tenant":   c.MaxSessionsPerTenant,
		"max_concurrent_per_tenant": c.MaxConcurrentPerTenant,
		"admission_queue_depth":     c.AdmissionQueueDepth,
	} {
		if v < 0 {
			return fmt.Errorf("config: %s must not be negative", name)
		}
	}
	if c.AdmissionQueueDepth > 0 && c.MaxConcurrentPerTenant == 0 {
		return fmt.Errorf("config: admission_queue_depth needs max_concurrent_per_tenant")
	}
	return nil
}

// ArchValue returns the parsed architecture; call Validate first.
func (c *ServerConfig) ArchValue() fedfunc.Arch {
	if strings.EqualFold(c.Arch, "udtf") {
		return fedfunc.ArchUDTF
	}
	return fedfunc.ArchWfMS
}

// Grace returns the shutdown grace period as a wall duration.
func (c *ServerConfig) Grace() time.Duration {
	return time.Duration(c.GraceMS * float64(time.Millisecond))
}

// SlowThreshold returns the slow-query threshold on the simulated clock
// (0 = disabled).
func (c *ServerConfig) SlowThreshold() time.Duration {
	return time.Duration(c.SlowQueryMS * float64(simlat.PaperMS))
}

// BuildConfig translates the validated serving configuration into the
// engine-level Config consumed by NewServer.
func (c *ServerConfig) BuildConfig() (Config, error) {
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	cfg := Config{
		Arch:   c.ArchValue(),
		Direct: c.Direct,
		Trace: collector.Policy{
			Capacity:         c.TraceCapacity,
			SampleRate:       c.TraceSample,
			LatencyThreshold: time.Duration(c.TraceSlowMS * float64(simlat.PaperMS)),
		},
		StmtTimeout:    time.Duration(c.StmtTimeoutMS * float64(simlat.PaperMS)),
		PartialResults: c.PartialResults,
		Admission: rpc.AdmissionPolicy{
			MaxSessionsPerTenant: c.MaxSessionsPerTenant,
			MaxConcurrent:        c.MaxConcurrentPerTenant,
			QueueDepth:           c.AdmissionQueueDepth,
		},
	}
	if c.RetryAttempts > 1 {
		cfg.Retry = resil.DefaultRetryPolicy()
		cfg.Retry.MaxAttempts = c.RetryAttempts
		cfg.Retry.BaseBackoff = time.Duration(c.RetryBackoffMS * float64(simlat.PaperMS))
		cfg.Retry.Budget = c.RetryBudget
	}
	if c.BreakerFailures > 0 {
		cfg.Breaker = resil.DefaultBreakerPolicy()
		cfg.Breaker.ConsecutiveFailures = c.BreakerFailures
		cfg.Breaker.OpenFor = time.Duration(c.BreakerOpenMS * float64(time.Millisecond))
	}
	if c.FaultSeed != 0 && c.FaultRate > 0 {
		inj := resil.NewInjector(c.FaultSeed)
		for _, sys := range []string{appsys.StockKeeping, appsys.ProductData, appsys.Purchasing} {
			inj.Plan(sys, resil.FaultPlan{ErrorRate: c.FaultRate})
		}
		cfg.Faults = inj
	}
	return cfg, nil
}

// Apply pushes the post-construction engine knobs (parallelism, batch
// size, SLO objectives) onto a built server. Output-related knobs (slow
// log writer, audit file, metrics listener) stay with the binary, which
// owns the process's files and sockets.
func (c *ServerConfig) Apply(srv *Server) {
	if c.DOP != 0 {
		srv.Engine().SetParallelism(c.DOP)
	}
	if c.BatchSize > 1 {
		srv.Engine().SetBatchSize(c.BatchSize)
	}
	if c.SLOAvailability > 0 || c.SLOLatencyMS > 0 {
		obj := srv.Journal().Objectives()
		if c.SLOAvailability > 0 {
			obj.Availability = c.SLOAvailability
		}
		if c.SLOLatencyMS > 0 {
			obj.Latency = time.Duration(c.SLOLatencyMS * float64(simlat.PaperMS))
		}
		srv.Journal().SetObjectives(obj)
	}
}

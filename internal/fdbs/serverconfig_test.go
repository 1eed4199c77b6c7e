package fdbs

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fedwf/internal/fedfunc"
	"fedwf/internal/rpc"
)

func writeConfigFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "server.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDefaultServerConfigValidates(t *testing.T) {
	c := DefaultServerConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.ArchValue() != fedfunc.ArchWfMS {
		t.Errorf("default arch = %v", c.ArchValue())
	}
}

func TestLoadFile(t *testing.T) {
	path := writeConfigFile(t, `{
		"addr": "127.0.0.1:9999",
		"arch": "udtf",
		"batch_size": 16,
		"max_sessions_per_tenant": 4,
		"max_concurrent_per_tenant": 8,
		"admission_queue_depth": 32
	}`)
	c := DefaultServerConfig()
	if err := c.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if c.Addr != "127.0.0.1:9999" || c.Arch != "udtf" || c.BatchSize != 16 {
		t.Errorf("loaded config = %+v", c)
	}
	if c.MaxSessionsPerTenant != 4 || c.MaxConcurrentPerTenant != 8 || c.AdmissionQueueDepth != 32 {
		t.Errorf("admission knobs = %d/%d/%d", c.MaxSessionsPerTenant, c.MaxConcurrentPerTenant, c.AdmissionQueueDepth)
	}
	// Keys absent from the file keep their prior (default) values.
	if c.GraceMS != DefaultServerConfig().GraceMS {
		t.Errorf("grace_ms = %v, want default", c.GraceMS)
	}
}

func TestLoadFileRejectsUnknownKeys(t *testing.T) {
	path := writeConfigFile(t, `{"adress": "typo"}`)
	c := DefaultServerConfig()
	if err := c.LoadFile(path); err == nil {
		t.Fatal("typo'd key loaded silently")
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ServerConfig)
		want   string
	}{
		{"empty addr", func(c *ServerConfig) { c.Addr = "" }, "addr"},
		{"bad arch", func(c *ServerConfig) { c.Arch = "corba" }, "architecture"},
		{"sample rate", func(c *ServerConfig) { c.TraceSample = 1.5 }, "trace_sample"},
		{"fault rate range", func(c *ServerConfig) { c.FaultRate = 2 }, "fault_rate"},
		{"fault rate without seed", func(c *ServerConfig) { c.FaultRate = 0.5 }, "fault_seed"},
		{"negative duration", func(c *ServerConfig) { c.StmtTimeoutMS = -1 }, "stmt_timeout_ms"},
		{"negative count", func(c *ServerConfig) { c.MaxConcurrentPerTenant = -1 }, "max_concurrent_per_tenant"},
		{"queue without cap", func(c *ServerConfig) { c.AdmissionQueueDepth = 8 }, "max_concurrent_per_tenant"},
		{"slo availability", func(c *ServerConfig) { c.SLOAvailability = 1.5 }, "slo_availability"},
	}
	for _, tc := range cases {
		c := DefaultServerConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateRejectsNonFiniteAndOverflow: NaN, ±Inf, and millisecond
// values whose time.Duration overflows are rejected naming the field,
// whether they come from a flag or the struct; the largest value that
// fits still validates.
func TestValidateRejectsNonFiniteAndOverflow(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-stmt-timeout-ms", "Inf"}, "stmt_timeout_ms"},
		{[]string{"-stmt-timeout-ms", "1e300"}, "stmt_timeout_ms"},
		{[]string{"-stmt-timeout-ms", "9.3e12"}, "stmt_timeout_ms"},
		{[]string{"-slo-latency-ms", "Inf"}, "slo_latency_ms"},
		{[]string{"-slo-latency-ms", "-Inf"}, "slo_latency_ms"},
		{[]string{"-retry-backoff-ms", "NaN"}, "retry_backoff_ms"},
		{[]string{"-slow-query-ms", "NaN"}, "slow_query_ms"},
		{[]string{"-trace-slow-ms", "1e20"}, "trace_slow_ms"},
		{[]string{"-trace-sample", "NaN"}, "trace_sample"},
		{[]string{"-trace-sample", "-Inf"}, "trace_sample"},
		{[]string{"-slo-availability", "NaN"}, "slo_availability"},
		{[]string{"-fault-rate", "NaN", "-fault-seed", "7"}, "fault_rate"},
	}
	for _, tc := range cases {
		c := DefaultServerConfig()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c.RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := c.Validate()
		if err == nil {
			t.Errorf("%v: validated", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
	for name, mutate := range map[string]func(*ServerConfig){
		"grace_ms":        func(c *ServerConfig) { c.GraceMS = math.Inf(1) },
		"breaker_open_ms": func(c *ServerConfig) { c.BreakerOpenMS = math.NaN() },
	} {
		c := DefaultServerConfig()
		mutate(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %v does not name it", name, err)
		}
	}
	c := DefaultServerConfig()
	c.StmtTimeoutMS = 9.2e12 // just under 2^63 ns
	cfg, err := c.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StmtTimeout <= 0 {
		t.Fatalf("stmt timeout = %v, want positive", cfg.StmtTimeout)
	}
}

// TestFlagsOverrideFile mirrors the server binary's hydration order: load
// the file first, then parse flags with the loaded values as defaults — a
// flag given on the command line wins, everything else keeps file values.
func TestFlagsOverrideFile(t *testing.T) {
	path := writeConfigFile(t, `{"addr": "127.0.0.1:1111", "arch": "udtf", "batch_size": 16}`)
	c := DefaultServerConfig()
	if err := c.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := fs.Parse([]string{"-addr", "127.0.0.1:2222", "-grace", "250ms", "-max-concurrent-per-tenant", "8"}); err != nil {
		t.Fatal(err)
	}
	if c.Addr != "127.0.0.1:2222" {
		t.Errorf("addr = %q, want flag override", c.Addr)
	}
	if c.Arch != "udtf" || c.BatchSize != 16 {
		t.Errorf("file values lost: arch=%q batch=%d", c.Arch, c.BatchSize)
	}
	if c.GraceMS != 250 {
		t.Errorf("grace = %v ms, want 250 (duration flag)", c.GraceMS)
	}
	if c.Grace() != 250*time.Millisecond {
		t.Errorf("Grace() = %v", c.Grace())
	}
	if c.MaxConcurrentPerTenant != 8 {
		t.Errorf("max-concurrent-per-tenant = %d", c.MaxConcurrentPerTenant)
	}
}

func TestBuildConfigMapsAdmissionPolicy(t *testing.T) {
	c := DefaultServerConfig()
	c.MaxSessionsPerTenant = 4
	c.MaxConcurrentPerTenant = 2
	c.AdmissionQueueDepth = 16
	cfg, err := c.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := rpc.AdmissionPolicy{MaxSessionsPerTenant: 4, MaxConcurrent: 2, QueueDepth: 16}
	if cfg.Admission != want {
		t.Errorf("admission policy = %+v, want %+v", cfg.Admission, want)
	}
	if cfg.Arch != fedfunc.ArchWfMS {
		t.Errorf("arch = %v", cfg.Arch)
	}
}

func TestBuildConfigRejectsInvalid(t *testing.T) {
	c := DefaultServerConfig()
	c.Arch = "corba"
	if _, err := c.BuildConfig(); err == nil {
		t.Fatal("BuildConfig accepted an invalid config")
	}
}

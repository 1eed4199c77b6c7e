package fdbs

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzServerConfig hydrates a ServerConfig the way the server binary does —
// a JSON file through LoadFile, then one "-flag value" pair through
// RegisterFlags — and checks that no input panics, and that whatever
// Validate accepts builds: BuildConfig succeeds and every duration it or
// the accessors derive is non-negative (no NaN, no overflow wrapping).
func FuzzServerConfig(f *testing.F) {
	def, err := json.Marshal(DefaultServerConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct{ body, flag, value string }{
		{string(def), "addr", "127.0.0.1:4711"},
		{string(def), "stmt-timeout-ms", "Inf"},
		{string(def), "stmt-timeout-ms", "1e300"},
		{string(def), "stmt-timeout-ms", "9.2e12"},
		{string(def), "slo-latency-ms", "-Inf"},
		{string(def), "trace-sample", "NaN"},
		{string(def), "grace", "-5s"},
		{string(def), "breaker-open", "2562047h"},
		{`{"grace_ms": 1e300}`, "arch", "udtf"},
		{`{"breaker_failures": 3, "breaker_open_ms": 9.2e12}`, "retry-attempts", "4"},
		{`{"fault_rate": 0.5}`, "fault-seed", "7"},
		{`{"admission_queue_depth": 4}`, "max-concurrent-per-tenant", "2"},
	} {
		f.Add(seed.body, seed.flag, seed.value)
	}
	// One file per worker process, rewritten for every input: a worker
	// runs its inputs one at a time.
	path := filepath.Join(f.TempDir(), "server.json")
	f.Fuzz(func(t *testing.T, body, name, value string) {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		c := DefaultServerConfig()
		if err := c.LoadFile(path); err != nil {
			return
		}
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.RegisterFlags(fs)
		if err := fs.Parse([]string{"-" + name, value}); err != nil {
			return
		}
		if c.Validate() != nil {
			return
		}
		cfg, err := c.BuildConfig()
		if err != nil {
			t.Fatalf("Validate accepted %+v but BuildConfig failed: %v", c, err)
		}
		for what, d := range map[string]time.Duration{
			"Grace":                  c.Grace(),
			"SlowThreshold":          c.SlowThreshold(),
			"Trace.LatencyThreshold": cfg.Trace.LatencyThreshold,
			"StmtTimeout":            cfg.StmtTimeout,
			"Retry.BaseBackoff":      cfg.Retry.BaseBackoff,
			"Breaker.OpenFor":        cfg.Breaker.OpenFor,
		} {
			if d < 0 {
				t.Errorf("Validate accepted %+v but %s = %v", c, what, d)
			}
		}
	})
}

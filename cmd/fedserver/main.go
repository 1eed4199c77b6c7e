// Command fedserver runs the integration server: the FDBS with the
// federated functions of the purchasing scenario registered through the
// chosen architecture, listening for SQL over the client protocol.
//
//	fedserver -addr 127.0.0.1:4711 -arch wfms
//	fedserver -arch udtf -direct
//	fedserver -config server.json
//	fedserver -config server.json -metrics-addr 127.0.0.1:9090
//	fedserver -max-concurrent-per-tenant 8 -admission-queue-depth 32
//
// Every knob lives in one validated fdbs.ServerConfig. It hydrates from
// a JSON file given with -config, from the command-line flags, or both —
// flags override the file, so a deployment config can be overridden ad
// hoc. An unknown key in the JSON file is an error, not a silent default.
//
// The listener speaks the framed multiplexed protocol (pipelined
// statements, per-session tenant accounting, typed errors); a connection
// that opens with anything else is closed. The -max-sessions-per-tenant,
// -max-concurrent-per-tenant and -admission-queue-depth flags bound what one tenant may hold open
// and in flight; requests beyond the bounded queue are shed immediately
// with a typed "unavailable" error instead of queueing without bound.
// Session and admission traffic surfaces as fedwf_sessions_* and
// fedwf_admission_* on /metrics and as session/shed events in the audit
// journal. Generate load with the fedload command.
//
// The -stmt-timeout-ms, -retry-*, and -breaker-* flags configure the
// fault-tolerance layer; -partial-results lets optional lateral branches
// degrade to NULL padding while a system's circuit is open. With
// -metrics-addr, a second HTTP listener serves /metrics and /healthz, and
// -pprof mounts net/http/pprof on it; it runs no SQL. Everything else the
// server knows about itself — the statistics warehouse, the audit journal,
// the SLO monitor and the retained traces — is read as SQL over the
// fed_stat_*, fed_audit_events, fed_wf_*, fed_slo, fed_traces and fed_spans
// relations, on the client protocol, admitted and accounted like any other
// statement. SIGINT/SIGTERM trigger a graceful shutdown that drains
// in-flight statements before severing connections.
//
// Connect with the fedsql command; fedtop renders a live view.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"fedwf/internal/fdbs"
	"fedwf/internal/obs"
	"fedwf/internal/simlat"
)

// configPath pre-scans the arguments for -config/--config so the file
// loads before flag parsing and flags override its values.
func configPath(args []string) string {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			return ""
		}
		name, val, eq := a, "", false
		if j := strings.IndexByte(a, '='); j >= 0 {
			name, val, eq = a[:j], a[j+1:], true
		}
		if name != "-config" && name != "--config" {
			continue
		}
		if eq {
			return val
		}
		if i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}

func main() {
	cfg := fdbs.DefaultServerConfig()
	if path := configPath(os.Args[1:]); path != "" {
		if err := cfg.LoadFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "fedserver:", err)
			os.Exit(1)
		}
	}
	flag.String("config", "", "JSON file with a ServerConfig; flags override its values")
	cfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		os.Exit(1)
	}

	engineCfg, err := cfg.BuildConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		os.Exit(1)
	}
	if engineCfg.Faults != nil {
		fmt.Printf("fedserver: fault injection on (seed %d, error rate %.0f%%)\n", cfg.FaultSeed, cfg.FaultRate*100)
	}
	srv, err := fdbs.NewServer(engineCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		os.Exit(1)
	}
	cfg.Apply(srv)
	if cfg.DOP != 0 {
		fmt.Printf("fedserver: intra-query parallelism %d\n", srv.Engine().Parallelism())
	}
	if cfg.BatchSize > 1 {
		fmt.Printf("fedserver: set-oriented federated calls, batch size %d\n", srv.Engine().BatchSize())
	}
	if cfg.SlowQueryMS > 0 {
		srv.SetSlowQueryLog(obs.NewSlowQueryLog(os.Stderr, cfg.SlowThreshold()))
		fmt.Printf("fedserver: slow-query log at %.1f paper ms\n", cfg.SlowQueryMS)
	}
	if cfg.SLOAvailability > 0 || cfg.SLOLatencyMS > 0 {
		obj := srv.Journal().Objectives()
		fmt.Printf("fedserver: SLOs: availability %.4f, latency %.0f paper ms\n",
			obj.Availability, float64(obj.Latency)/float64(simlat.PaperMS))
	}
	var auditFile *os.File
	if cfg.AuditOut != "" {
		f, err := os.Create(cfg.AuditOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedserver:", err)
			os.Exit(1)
		}
		auditFile = f
		srv.Journal().SetSink(f)
		fmt.Printf("fedserver: audit journal mirrored to %s\n", cfg.AuditOut)
	}
	bound, err := srv.Listen(cfg.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		os.Exit(1)
	}

	var metricsSrv *http.Server
	if cfg.MetricsAddr != "" {
		mux := obs.MetricsMux(srv.MetricsRegistry())
		if cfg.Pprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			fmt.Printf("fedserver: pprof on http://%s/debug/pprof/\n", cfg.MetricsAddr)
		}
		metricsSrv = &http.Server{Addr: cfg.MetricsAddr, Handler: mux}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "fedserver: metrics:", err)
			}
		}()
		fmt.Printf("fedserver: metrics on http://%s/metrics; statistics, journal, SLOs and traces are the fed_* relations\n", cfg.MetricsAddr)
	}

	if cfg.RetryAttempts > 1 || cfg.BreakerFailures > 0 || cfg.StmtTimeoutMS > 0 {
		fmt.Printf("fedserver: fault tolerance: retries=%d, breaker-failures=%d, stmt-timeout=%.0fms, partial-results=%v\n",
			cfg.RetryAttempts, cfg.BreakerFailures, cfg.StmtTimeoutMS, cfg.PartialResults)
	}
	if cfg.MaxSessionsPerTenant > 0 || cfg.MaxConcurrentPerTenant > 0 {
		fmt.Printf("fedserver: admission: sessions/tenant=%d, concurrent/tenant=%d, queue-depth=%d\n",
			cfg.MaxSessionsPerTenant, cfg.MaxConcurrentPerTenant, cfg.AdmissionQueueDepth)
	}
	fmt.Printf("fedserver: %s listening on %s (controller: %v)\n", cfg.ArchValue(), bound, !cfg.Direct)
	fmt.Println("fedserver: application systems:", strings.Join(srv.Apps().Systems(), ", "))
	fmt.Println("fedserver: federated functions registered; connect with fedsql -addr", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nfedserver: shutting down (draining in-flight statements)")
	failed := false
	if err := srv.Shutdown(cfg.Grace()); err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		failed = true
	}
	if auditFile != nil {
		// The drain hook flushed the journal's buffer; sync and close the
		// file itself.
		if err := auditFile.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "fedserver: audit-out:", err)
			failed = true
		}
		auditFile.Close()
	}
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Grace())
		if err := metricsSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fedserver: metrics:", err)
			failed = true
		}
		cancel()
	}
	if failed {
		os.Exit(1)
	}
}

package obs

import "fedwf/internal/simlat"

// ServerMetrics bundles the metric families the federated server records
// on its serving path, so fdbs and fedserver share one wiring point.
type ServerMetrics struct {
	Registry *Registry

	// Queries counts executed statements by integration architecture and
	// outcome ("ok" / "error").
	Queries *CounterVec
	// RowsReturned counts result rows by architecture.
	RowsReturned *CounterVec
	// LatencyPaperMS is the per-statement simulated latency histogram by
	// architecture, in paper milliseconds.
	LatencyPaperMS *HistogramVec
	// CacheHits/CacheMisses/CacheCoalesced mirror the per-statement
	// FuncCache stats, accumulated server-wide.
	CacheHits      *Counter
	CacheMisses    *Counter
	CacheCoalesced *Counter
	// Parallelism is the DOP new sessions start with.
	Parallelism *Gauge
	// WfMSActivities counts workflow activities executed by the WfMS
	// engine.
	WfMSActivities *Counter
	// InFlight is the number of statements currently executing.
	InFlight *Gauge
	// SlowQueries counts statements logged by the slow-query log.
	SlowQueries *Counter
	// Retries counts retry attempts against application systems, by system.
	Retries *CounterVec
	// BreakerTrips counts circuit-breaker trips (closed/half-open -> open),
	// by system.
	BreakerTrips *CounterVec
	// BreakerSheds counts calls rejected unexecuted by an open breaker, by
	// system.
	BreakerSheds *CounterVec
	// Timeouts counts application-system requests abandoned on the
	// statement deadline, by system.
	Timeouts *CounterVec
	// PartialResults counts statements answered with degraded (NULL-padded)
	// optional branches.
	PartialResults *Counter
	// Serving is the session/admission bundle of the high-concurrency
	// front end.
	Serving *ServingMetrics
}

// ServingMetrics bundles the metric families of the serving front end:
// session lifecycle and admission-control outcomes, per tenant. The rpc
// server's session manager updates it directly, so fdbs and fedserver
// expose it without extra plumbing.
type ServingMetrics struct {
	// SessionsOpen is the number of currently open client sessions, by
	// tenant.
	SessionsOpen *GaugeVec
	// SessionsOpened counts accepted sessions, by tenant and protocol
	// (always "framed"; the label predates the gob transport's retirement
	// and dashboards key on it).
	SessionsOpened *CounterVec
	// SessionsRejected counts sessions refused at the handshake because
	// the tenant's session quota was exhausted, by tenant.
	SessionsRejected *CounterVec
	// AdmissionAdmitted counts requests that acquired an execution slot,
	// by tenant (including those that waited in the queue first).
	AdmissionAdmitted *CounterVec
	// AdmissionQueued counts requests that waited in the bounded
	// admission queue before running, by tenant.
	AdmissionQueued *CounterVec
	// AdmissionShed counts requests rejected with
	// resil.ErrAppSysUnavailable because the queue was full, by tenant.
	AdmissionShed *CounterVec
	// AdmissionQueueDepth is the current number of queued requests, by
	// tenant.
	AdmissionQueueDepth *GaugeVec
	// AdmissionQueueWaitMS is the wall-time distribution of queue waits.
	AdmissionQueueWaitMS *Histogram
}

// NewServingMetrics registers the serving-layer families on reg.
func NewServingMetrics(reg *Registry) *ServingMetrics {
	return &ServingMetrics{
		SessionsOpen:         reg.GaugeVec("fedwf_sessions_open_total", "Client sessions currently open, by tenant.", "tenant"),
		SessionsOpened:       reg.CounterVec("fedwf_sessions_opened_total", "Client sessions accepted, by tenant and protocol.", "tenant", "proto"),
		SessionsRejected:     reg.CounterVec("fedwf_sessions_rejected_total", "Client sessions refused on the tenant session quota, by tenant.", "tenant"),
		AdmissionAdmitted:    reg.CounterVec("fedwf_admission_admitted_total", "Requests granted an execution slot, by tenant.", "tenant"),
		AdmissionQueued:      reg.CounterVec("fedwf_admission_queued_total", "Requests that waited in the admission queue, by tenant.", "tenant"),
		AdmissionShed:        reg.CounterVec("fedwf_admission_shed_total", "Requests shed because the admission queue was full, by tenant.", "tenant"),
		AdmissionQueueDepth:  reg.GaugeVec("fedwf_admission_queue_depth_total", "Requests currently waiting in the admission queue, by tenant.", "tenant"),
		AdmissionQueueWaitMS: reg.Histogram("fedwf_admission_queue_wait_ms", "Wall-clock admission queue wait in milliseconds.", LatencyBuckets),
	}
}

// NewServerMetrics registers the server's metric families on reg.
func NewServerMetrics(reg *Registry) *ServerMetrics {
	return &ServerMetrics{
		Registry:       reg,
		Queries:        reg.CounterVec("fedwf_queries_total", "Statements executed, by architecture and status.", "arch", "status"),
		RowsReturned:   reg.CounterVec("fedwf_rows_returned_total", "Result rows returned, by architecture.", "arch"),
		LatencyPaperMS: reg.HistogramVec("fedwf_query_latency_paper_ms", "Per-statement simulated latency in paper milliseconds, by architecture.", LatencyBuckets, "arch"),
		CacheHits:      reg.Counter("fedwf_func_cache_hits_total", "Function-cache hits across all statements."),
		CacheMisses:    reg.Counter("fedwf_func_cache_misses_total", "Function-cache misses across all statements."),
		CacheCoalesced: reg.Counter("fedwf_func_cache_coalesced_total", "Function-cache calls coalesced into an in-flight invocation."),
		Parallelism:    reg.Gauge("fedwf_parallelism_workers_total", "Degree of parallelism last applied to a session."),
		WfMSActivities: reg.Counter("fedwf_wfms_activities_total", "Workflow activities executed by the WfMS engine."),
		InFlight:       reg.Gauge("fedwf_inflight_statements_total", "Statements currently executing."),
		SlowQueries:    reg.Counter("fedwf_slow_queries_total", "Statements logged by the slow-query log."),
		Retries:        reg.CounterVec("fedwf_appsys_retries_total", "Retry attempts against application systems, by system.", "system"),
		BreakerTrips:   reg.CounterVec("fedwf_breaker_trips_total", "Circuit-breaker trips, by system.", "system"),
		BreakerSheds:   reg.CounterVec("fedwf_breaker_sheds_total", "Calls shed unexecuted by an open breaker, by system.", "system"),
		Timeouts:       reg.CounterVec("fedwf_statement_timeouts_total", "Statements abandoned on their deadline mid-call, by system.", "system"),
		PartialResults: reg.Counter("fedwf_partial_results_total", "Statements answered with degraded optional branches."),
		Serving:        NewServingMetrics(reg),
	}
}

// ObserveStatement updates the per-statement series from one finished
// statement: its outcome and paper latency by architecture, its
// function-cache counts, its executed workflow activities and its fault
// counts by system; a successful statement adds its rows and, when
// degraded, a partial result.
func (m *ServerMetrics) ObserveStatement(st *Statement) {
	status := "ok"
	if st.Err != "" {
		status = "error"
	}
	m.Queries.With(st.Arch, status).Inc()
	m.LatencyPaperMS.With(st.Arch).Observe(float64(st.Paper) / float64(simlat.PaperMS))
	m.CacheHits.Add(float64(st.CacheHits))
	m.CacheMisses.Add(float64(st.CacheMisses))
	m.CacheCoalesced.Add(float64(st.CacheCoalesced))
	m.WfMSActivities.Add(float64(st.Counters.Activities))
	for _, f := range st.Counters.Faults {
		m.faultSeries(f.Kind).With(f.System).Add(float64(f.N))
	}
	if st.Err != "" {
		return
	}
	if st.Partial {
		m.PartialResults.Inc()
	}
	m.RowsReturned.With(st.Arch).Add(float64(st.Rows))
}

// faultSeries is the per-system family counting one fault kind.
func (m *ServerMetrics) faultSeries(k FaultKind) *CounterVec {
	return [...]*CounterVec{FaultRetry: m.Retries, FaultBreakerTrip: m.BreakerTrips,
		FaultShed: m.BreakerSheds, FaultTimeout: m.Timeouts}[k]
}

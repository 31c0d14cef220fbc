package server

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/plancache"
	"dpm/internal/resilience"

	// Register the alternative planner backends (yds, bunde) so
	// ?strategy= resolves them; internal/pipeline registers "paper".
	_ "dpm/internal/strategy"
)

// Observability assembly -------------------------------------------
//
// The server owns one obs.Registry, and GET /metrics renders exactly
// its families:
//
//   - dpmd_http_request_duration_seconds{endpoint}   histogram
//   - dpmd_http_request_errors_total{endpoint}       counter
//   - dpmd_pipeline_stage_duration_seconds{stage}    histogram, fed by
//     the pipeline spans (pipeline.validate, pipeline.plan,
//     alloc.Compute, alloc.iteration, params.table, …)
//   - dpmd_cache_shard_*_total{cache,shard}          per-shard plan- and
//     table-cache counters, and dpmd_cache_{entries,capacity}{cache}
//   - dpmd_admission_*, dpmd_fleet_* and dpmd_ingest_* families
//   - dpmd_start_time_seconds / dpmd_uptime_seconds and the go_*
//     runtime gauges (obs.RuntimeCollector)
//
// Request contexts carry an obs.Recorder pointing at the stage
// histogram; a request opting in with "X-Dpmd-Trace: 1" additionally
// gets a Trace, and /v1/plan wraps its (unchanged, cache-identical)
// payload in a TracedPlanResponse carrying the span tree.

// traceHeader opts a /v1/plan request into the span-tree debug
// response.
const traceHeader = "X-Dpmd-Trace"

// requestIDHeader carries the request id: honored inbound when
// well-formed, generated otherwise, echoed on every response and
// stamped into the request log line.
const requestIDHeader = "X-Request-Id"

// telemetry bundles the server's metric families.
type telemetry struct {
	registry     *obs.Registry
	reqHist      *obs.HistogramVec
	errTotal     *obs.CounterVec
	stages       *obs.HistogramVec
	planStrategy *obs.CounterVec
}

// strategyLabel maps the canonical planner selector (empty = default)
// onto its metric label, so dashboards see "paper" rather than "".
func strategyLabel(planner string) string {
	if planner == "" {
		return pipeline.DefaultStrategy
	}
	return planner
}

// newTelemetry builds the registry for one server. Registration order
// is exposition order.
func newTelemetry(s *Server) *telemetry {
	t := &telemetry{registry: obs.NewRegistry()}
	t.reqHist = obs.NewHistogramVec("dpmd_http_request_duration_seconds",
		"Request latency by endpoint, including pool wait.", "endpoint", nil)
	t.errTotal = obs.NewCounterVec("dpmd_http_request_errors_total",
		"Requests answered with a 4xx or 5xx status, by endpoint.", "endpoint")
	t.stages = obs.NewHistogramVec("dpmd_pipeline_stage_duration_seconds",
		"Planning-pipeline stage latency by span name.", "stage", nil)
	t.planStrategy = obs.NewCounterVec("dpmd_plan_requests_total",
		"Validated plan requests (individual and batch items) by planner strategy.", "strategy")
	t.registry.Register(t.reqHist)
	t.registry.Register(t.errTotal)
	t.registry.Register(t.stages)
	t.registry.Register(t.planStrategy)
	t.registry.Register(obs.CollectorFunc(s.writeCacheProm))
	t.registry.Register(obs.CollectorFunc(s.writeAdmissionProm))
	t.registry.Register(obs.CollectorFunc(s.writeFleetProm))
	// The ingestion daemon is constructed after the registry (it needs
	// the stage histogram); the collector resolves it at scrape time
	// and renders nothing while ingestion is disabled.
	t.registry.Register(obs.CollectorFunc(func(w io.Writer) error {
		if s.ingest == nil {
			return nil
		}
		return s.ingest.WriteProm(w)
	}))
	t.registry.Register(obs.RuntimeCollector{Start: s.start})
	return t
}

// writeAdmissionProm renders the admission controller's per-endpoint
// outcome counters, the live queue depth, and the rolling
// service-time estimate the shed prediction runs on:
//
//   - dpmd_admission_admitted_total{endpoint}  counter
//   - dpmd_admission_shed_total{endpoint}      counter
//   - dpmd_admission_expired_total{endpoint}   counter
//   - dpmd_admission_queue_depth               gauge
//   - dpmd_admission_service_time_seconds{endpoint} gauge
func (s *Server) writeAdmissionProm(w io.Writer) error {
	snap := s.adm.Snapshot()
	for _, c := range []struct {
		suffix, help string
		value        func(resilience.EndpointAdmission) uint64
	}{
		{"admitted", "Requests granted a worker slot, by endpoint.",
			func(ea resilience.EndpointAdmission) uint64 { return ea.Admitted }},
		{"shed", "Requests rejected up front because the predicted queue wait exceeded their deadline, by endpoint.",
			func(ea resilience.EndpointAdmission) uint64 { return ea.Shed }},
		{"expired", "Requests whose deadline expired while queued for a slot, by endpoint.",
			func(ea resilience.EndpointAdmission) uint64 { return ea.Expired }},
	} {
		name := "dpmd_admission_" + c.suffix + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, c.help, name); err != nil {
			return err
		}
		for _, ea := range snap {
			if err := obs.WriteLabeledCounter(w, name, [][2]string{{"endpoint", ea.Endpoint}}, c.value(ea)); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w,
		"# HELP dpmd_admission_queue_depth Requests currently waiting for a worker slot.\n# TYPE dpmd_admission_queue_depth gauge\ndpmd_admission_queue_depth %d\n",
		s.adm.QueueDepth()); err != nil {
		return err
	}
	const est = "dpmd_admission_service_time_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Rolling per-endpoint service-time estimate driving shed prediction.\n# TYPE %s gauge\n", est, est); err != nil {
		return err
	}
	for _, ea := range snap {
		if _, err := fmt.Fprintf(w, "%s{endpoint=%q} %g\n", est, ea.Endpoint, ea.ServiceTimeSeconds); err != nil {
			return err
		}
	}
	return nil
}

// writeCacheProm renders the plan-cache and Algorithm 2 table-cache
// counters per shard, plus aggregate entry/capacity gauges.
func (s *Server) writeCacheProm(w io.Writer) error {
	caches := []struct {
		name   string
		shards []plancache.Stats
		total  plancache.Stats
	}{
		{"plan", s.cache.ShardStats(), s.cache.Stats()},
		{"table", params.SharedTableShardStats(), params.SharedTableStats()},
	}
	counters := []struct {
		suffix, help string
		value        func(plancache.Stats) uint64
	}{
		{"hits", "Cache hits by cache and shard.", func(st plancache.Stats) uint64 { return st.Hits }},
		{"misses", "Cache misses by cache and shard.", func(st plancache.Stats) uint64 { return st.Misses }},
		{"evictions", "Entries displaced by capacity pressure, by cache and shard.", func(st plancache.Stats) uint64 { return st.Evictions }},
		{"puts", "Cache insertions by cache and shard.", func(st plancache.Stats) uint64 { return st.Puts }},
	}
	for _, c := range counters {
		name := "dpmd_cache_shard_" + c.suffix + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, c.help, name); err != nil {
			return err
		}
		for _, cache := range caches {
			for i, st := range cache.shards {
				labels := [][2]string{{"cache", cache.name}, {"shard", strconv.Itoa(i)}}
				if err := obs.WriteLabeledCounter(w, name, labels, c.value(st)); err != nil {
					return err
				}
			}
		}
	}
	for _, g := range []struct {
		name, help string
		value      func(plancache.Stats) int
	}{
		{"dpmd_cache_entries", "Current entries by cache.", func(st plancache.Stats) int { return st.Len }},
		{"dpmd_cache_capacity", "Maximum entries by cache.", func(st plancache.Stats) int { return st.Capacity }},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name); err != nil {
			return err
		}
		for _, cache := range caches {
			if _, err := fmt.Fprintf(w, "%s{cache=%q} %d\n", g.name, cache.name, g.value(cache.total)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TraceInfo is the span-tree section of a traced response.
type TraceInfo struct {
	// RequestID is the request's X-Request-Id.
	RequestID string `json:"requestId"`
	// Spans is the span forest: names, offsets, durations,
	// annotations (per-iteration Algorithm 1 violation counts, cache
	// and memoizer dispositions).
	Spans []obs.SpanNode `json:"spans"`
}

// TracedPlanResponse wraps a /v1/plan payload when the request set
// "X-Dpmd-Trace: 1". Response carries the exact default body bytes —
// the cache entry is byte-identical whether or not the request was
// traced.
type TracedPlanResponse struct {
	// Response is the untouched /v1/plan response body.
	Response json.RawMessage `json:"response"`
	// Trace is the request's span tree.
	Trace TraceInfo `json:"trace"`
}

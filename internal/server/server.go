// Package server implements dpmd, the long-running power-planning
// service. A fleet of battery-backed nodes shares one deployment: a
// node POSTs its charging forecast and battery band and receives the
// paper's plans back as JSON — the Algorithm 1 power allocation
// (/v1/plan), the Algorithm 2 (n, f) schedule for a plan
// (/v1/params), the Algorithm 3 runtime update given planned-vs-
// actual energies (/v1/replan) and a bounded closed-loop simulation
// (/v1/simulate) — plus /healthz and a Prometheus-format /metrics.
//
// Because many nodes share hardware configurations and charging
// forecasts, plan and params responses are cached in a
// concurrency-safe LRU (internal/plancache) keyed by a canonical
// hash of the scenario; repeated requests are served byte-identical
// from memory. Handlers run behind a bounded worker pool with
// per-request timeouts and body-size limits, and shutdown drains
// in-flight requests before returning.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/fleet"
	"dpm/internal/ingest"
	"dpm/internal/metrics"
	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/plancache"
	"dpm/internal/resilience"
	"dpm/internal/scenario"
	"dpm/internal/trace"
)

// cacheHeader reports whether a response came from the plan cache.
const cacheHeader = "X-Dpmd-Cache"

// Config tunes the service.
type Config struct {
	// Addr is the listen address (host:port); ":8080" by default.
	Addr string
	// PoolSize bounds concurrently executing planning requests;
	// excess requests wait (up to the request timeout) for a slot.
	// Default 8.
	PoolSize int
	// CacheEntries is the plan-cache capacity. Default 256.
	CacheEntries int
	// CacheShards is the number of plan-cache shards (rounded up to a
	// power of two). 0 picks the default: GOMAXPROCS rounded up to a
	// power of two, capped at 16. 1 restores the single-lock cache.
	CacheShards int
	// RequestTimeout bounds one request end to end: the wait for a
	// pool slot plus the planning or simulation work itself. The
	// work is cancelled cooperatively — the deadline is checked
	// between Algorithm 1 iterations, simulated slots, machine-sim
	// events and trace draws — and a request whose deadline has
	// expired is answered 503 rather than having its response
	// written after the SLO. Default 10 s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives structured events: one
	// "request" event per request (request_id, method, path, status,
	// bytes, dur_ms, cache, remote) plus "listening" and "shutdown"
	// lifecycle events. nil disables logging.
	AccessLog *obs.Logger
	// DebugAddr, when non-empty, serves net/http/pprof on a second
	// listener at that address. The profiling mux is deliberately
	// separate from the API listener so operators can firewall it.
	DebugAddr string
	// DrainGrace delays the listener close at shutdown: /readyz flips
	// to 503 the moment Shutdown is called, then the server keeps
	// accepting for DrainGrace so load balancers polling readiness
	// stop routing before connections start failing. 0 closes the
	// listener immediately.
	DrainGrace time.Duration
	// ChaosHold, when positive, holds every pooled request for that
	// long (or until its deadline expires) after it takes a worker
	// slot. It exists to drive the pool into saturation
	// deterministically — overload drills and the CI smoke test
	// (cmd/dpmd -chaos-hold). 0 disables.
	ChaosHold time.Duration
	// Wrap, when non-nil, wraps the assembled handler tree — the hook
	// chaos middleware (internal/chaostest.Middleware) and embedder
	// instrumentation attach to.
	Wrap func(http.Handler) http.Handler
	// FleetMaxSessions caps live fleet sessions; a register beyond the
	// cap answers 503 with Retry-After. 0 means unlimited.
	FleetMaxSessions int
	// FleetIdleTTL evicts fleet sessions untouched for this long,
	// parking their checkpoints for handback on re-register. 0
	// disables eviction.
	FleetIdleTTL time.Duration
	// IngestAddr, when non-empty, runs the telemetry ingestion daemon
	// (internal/ingest) on that UDP address: registered devices stream
	// StatsD counters/gauges, flush windows close observed slots that
	// tick their fleet sessions, and sustained forecast divergence
	// replans them. Empty disables ingestion; /v1/ingest/* answer 404.
	IngestAddr string
	// IngestFlush is the ingestion flush interval (one observed slot
	// per window). 0 disables the timer: windows close only via
	// POST /v1/ingest/flush — the deterministic test/ops mode.
	IngestFlush time.Duration
	// IngestPredictor selects the forecast estimator: "last-period"
	// (default), "moving-average" or "exponential".
	IngestPredictor string
	// DivergenceThreshold is the observed-vs-planned relative error
	// above which an ingestion slot counts as breached (default 0.25).
	DivergenceThreshold float64
	// IngestEventEnergyJ converts counted events to joules (default 1).
	IngestEventEnergyJ float64
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.PoolSize == 0 {
		c.PoolSize = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
}

// Server is one dpmd instance.
type Server struct {
	cfg   Config
	cache *plancache.Sharded[[]byte]
	// start is when New built the server (dpmd_start_time_seconds).
	start time.Time
	tel   *telemetry
	adm   *resilience.Controller
	fleet *fleet.Manager
	// ingest is the telemetry ingestion loop; nil when disabled.
	ingest *ingest.Daemon
	mux    *http.ServeMux

	// draining flips the moment Shutdown begins; /readyz answers 503
	// from then on while /healthz keeps reporting liveness.
	draining atomic.Bool

	mu       sync.Mutex
	listener net.Listener
	httpSrv  *http.Server
	serveErr chan error
	debugLn  net.Listener
	debugSrv *http.Server

	// testDelay, when non-nil, runs inside every pooled handler
	// after the pool slot is acquired — tests use it to hold
	// requests in flight across a Shutdown.
	testDelay func()
}

// New validates the configuration and assembles the handler tree.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.PoolSize < 1 {
		return nil, fmt.Errorf("server: pool size %d must be at least 1", cfg.PoolSize)
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("server: negative request timeout %s", cfg.RequestTimeout)
	}
	if cfg.MaxBodyBytes < 1024 {
		return nil, fmt.Errorf("server: max body %d bytes is below the 1 KiB floor", cfg.MaxBodyBytes)
	}
	cache, err := plancache.NewSharded(cfg.CacheEntries, cfg.CacheShards, func(b []byte) []byte {
		return append([]byte(nil), b...)
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	fm, err := fleet.New(fleet.Config{
		MaxSessions: cfg.FleetMaxSessions,
		IdleTTL:     cfg.FleetIdleTTL,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		start: time.Now(),
		adm:   resilience.NewController(cfg.PoolSize),
		fleet: fm,
		mux:   http.NewServeMux(),
	}
	s.tel = newTelemetry(s)
	if cfg.IngestAddr != "" || cfg.IngestFlush > 0 {
		ing, err := newIngest(s)
		if err != nil {
			fm.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.ingest = ing
	}
	s.mux.Handle("/v1/plan", s.endpoint(http.MethodPost, true, s.handlePlan))
	s.mux.Handle("/v1/batch", s.endpoint(http.MethodPost, true, s.handleBatch))
	s.mux.Handle("/v1/params", s.endpoint(http.MethodPost, true, s.handleParams))
	s.mux.Handle("/v1/replan", s.endpoint(http.MethodPost, true, s.handleReplan))
	s.mux.Handle("/v1/simulate", s.endpoint(http.MethodPost, true, s.handleSimulate))
	s.mux.Handle("/v1/fleet/register", s.endpoint(http.MethodPost, true, s.handleFleetRegister))
	s.mux.Handle("/v1/fleet/tick", s.endpoint(http.MethodPost, true, s.handleFleetTick))
	s.mux.Handle("/v1/fleet/bulk-tick", s.endpoint(http.MethodPost, true, s.handleFleetBulkTick))
	s.mux.Handle("/v1/fleet/drain", s.endpoint(http.MethodPost, true, s.handleFleetDrain))
	s.mux.Handle("/v1/ingest/stats", s.endpoint(http.MethodGet, false, s.handleIngestStats))
	s.mux.Handle("/v1/ingest/flush", s.endpoint(http.MethodPost, false, s.handleIngestFlush))
	s.mux.Handle("/healthz", s.endpoint(http.MethodGet, false, s.handleHealthz))
	s.mux.Handle("/readyz", s.endpoint(http.MethodGet, false, s.handleReadyz))
	s.mux.Handle("/metrics", s.endpoint(http.MethodGet, false, s.handleMetrics))
	// Prime every pooled route so each endpoint learns its own EWMA
	// service time from its first request and appears on /metrics from
	// startup — new endpoints must never share another's estimate.
	s.adm.Prime(
		"/v1/plan", "/v1/batch", "/v1/params", "/v1/replan", "/v1/simulate",
		"/v1/fleet/register", "/v1/fleet/tick", "/v1/fleet/bulk-tick", "/v1/fleet/drain",
	)
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and
// in-process embedding), with Config.Wrap applied when set.
func (s *Server) Handler() http.Handler {
	if s.cfg.Wrap != nil {
		return s.cfg.Wrap(s.mux)
	}
	return s.mux
}

// AdmissionStats snapshots the admission controller's per-endpoint
// counters.
func (s *Server) AdmissionStats() []resilience.EndpointAdmission { return s.adm.Snapshot() }

// CacheStats snapshots the plan-cache counters.
func (s *Server) CacheStats() plancache.Stats { return s.cache.Stats() }

// statusWriter records the status code and body size for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// endpoint wraps a handler with the service middleware: method
// check, body-size limit, per-request timeout, the bounded worker
// pool (for planning endpoints), request-id propagation, telemetry
// attachment, request accounting and logging.
func (s *Server) endpoint(method string, pooled bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		// Honor a well-formed inbound X-Request-Id, generate one
		// otherwise, and echo it on the response before the handler can
		// write headers.
		reqID := obs.SanitizeRequestID(r.Header.Get(requestIDHeader))
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		sw.Header().Set(requestIDHeader, reqID)
		func() {
			if r.Method != method {
				sw.Header().Set("Allow", method)
				writeError(sw, http.StatusMethodNotAllowed,
					fmt.Sprintf("method %s not allowed; use %s", r.Method, method))
				return
			}
			if r.Body != nil {
				r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
			}
			ctx := r.Context()
			// The effective deadline is the tighter of the server's
			// RequestTimeout and the client's own remaining budget
			// (X-Dpmd-Deadline) — a reply the client will have stopped
			// waiting for is not worth computing.
			timeout := s.cfg.RequestTimeout
			if pooled {
				d, derr := clientDeadline(r)
				if derr != nil {
					s.fail(sw, r, derr)
					return
				}
				if d > 0 && (timeout == 0 || d < timeout) {
					timeout = d
				}
			}
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			if pooled {
				// Planning endpoints always record per-stage latencies;
				// the span tree is materialized only for requests that
				// opt in with the trace header.
				rec := &obs.Recorder{Stages: s.tel.stages}
				if r.Header.Get(traceHeader) == "1" {
					rec.Trace = obs.NewTrace()
				}
				ctx = obs.WithRecorder(ctx, rec)
				r = r.WithContext(ctx)
				// Deadline-aware admission: take a worker slot, or be
				// shed right away when the predicted queue wait already
				// overruns the deadline — a queued-to-die request costs
				// a connection and a queue position for nothing.
				slot, verdict, retryAfter := s.adm.Acquire(ctx, r.URL.Path)
				switch verdict {
				case resilience.Shed:
					writeUnavailable(sw, retryAfter,
						"worker pool saturated and predicted wait exceeds the request deadline; request shed")
					return
				case resilience.Expired:
					writeUnavailable(sw, retryAfter,
						"worker pool saturated; request deadline expired while queued")
					return
				}
				defer slot.Release()
				if s.cfg.ChaosHold > 0 {
					holdCtx(ctx, s.cfg.ChaosHold)
				}
				if s.testDelay != nil {
					s.testDelay()
				}
			} else {
				r = r.WithContext(ctx)
			}
			h(sw, r)
		}()
		dur := time.Since(start)
		s.tel.reqHist.Observe(r.URL.Path, dur.Seconds())
		if sw.status >= 400 {
			s.tel.errTotal.Add(r.URL.Path, 1)
		}
		cache := sw.Header().Get(cacheHeader)
		if cache == "" {
			cache = "-"
		}
		if s.cfg.AccessLog != nil {
			s.cfg.AccessLog.Event("request",
				obs.F("request_id", reqID),
				obs.F("method", r.Method),
				obs.F("path", r.URL.Path),
				obs.F("status", sw.status),
				obs.F("bytes", sw.bytes),
				obs.F("dur_ms", float64(dur.Microseconds())/1000),
				obs.F("cache", cache),
				obs.F("remote", r.RemoteAddr))
		}
	})
}

// errorJSON renders the structured error body exactly as writeError
// sends it, without the trailing newline — the form batch items
// embed.
func errorJSON(status int, msg string) []byte {
	return fmt.Appendf(nil, "{\"error\":%q,\"status\":%d}", msg, status)
}

// writeError emits the structured error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(errorJSON(status, msg), '\n')) //nolint:errcheck
}

// setRetryAfter stamps the Retry-After header in whole seconds with a
// 1 s floor — the granularity the header speaks.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// writeUnavailable emits a 503 with the structured error body and a
// Retry-After computed from the admission controller's queue state,
// so a well-behaved client backs off by the server's own estimate
// instead of guessing.
func writeUnavailable(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	setRetryAfter(w, retryAfter)
	writeError(w, http.StatusServiceUnavailable, msg)
}

// holdCtx sleeps d or until ctx is done — the drain-grace and
// chaos-hold timer.
func holdCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// errorBody maps an error onto its HTTP status and client-facing
// message: an explicit httpError keeps its code, a context
// cancellation (the request deadline expired or the client went away
// mid-computation) becomes 503, a validation failure
// (scenario.Error) or badRequest becomes 400, anything else is a
// 500.
func errorBody(err error) (int, string) {
	var he httpError
	if errors.As(err, &he) {
		return he.status, he.Error()
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable, "request deadline exceeded; computation aborted"
	}
	var ve *scenario.Error
	if errors.As(err, &ve) {
		return http.StatusBadRequest, ve.Error()
	}
	var br badRequest
	if errors.As(err, &br) {
		return http.StatusBadRequest, br.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

// fail writes the structured error response for err. Every 503 —
// notably a deadline that expired mid-computation — carries a
// Retry-After from the admission controller's current estimate, so
// all overload responses are uniformly retryable.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	status, msg := errorBody(err)
	if status == http.StatusServiceUnavailable {
		setRetryAfter(w, s.adm.RetryAfter(r.URL.Path))
	}
	writeError(w, status, msg)
}

// writeBytes writes a pre-encoded 200 body of the given media type.
func writeBytes(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck
}

// writeJSONBytes writes a pre-marshaled JSON body.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	writeBytes(w, "application/json", body)
}

// marshalBody renders a response exactly as the cache stores it, so
// cold and cached replies are byte-identical.
func marshalBody(v any) ([]byte, error) {
	b, err := canonicalJSON(v)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return b, nil
}

// respondCached serves the computed-or-cached flow shared by the
// plan and params endpoints: look the canonical key up, compute and
// insert on a miss — coalescing concurrent identical misses onto one
// computation — and tag the response with the X-Dpmd-Cache header
// either way. The response is never written after the request's
// deadline has expired.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, key string, compute func(ctx context.Context) (any, error)) {
	ctx := r.Context()
	body, served, err := s.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return marshalBody(resp)
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if err := ctx.Err(); err != nil {
		s.fail(w, r, err)
		return
	}
	state := "miss"
	if served {
		state = "hit"
	}
	w.Header().Set(cacheHeader, state)
	writeJSONBytes(w, body)
}

// planResponse runs the pipeline for a validated, normalized plan
// request and shapes the name-free response. keyScenario is the
// request's scenario with the name cleared — the canonical form both
// wire encodings cache.
func planResponse(ctx context.Context, req *PlanRequest, keyScenario trace.Scenario) (*PlanResponse, error) {
	strategy, _ := parseStrategy(req.Strategy)
	res, err := pipeline.PlanWith(ctx, req.Planner, pipeline.PlanSpec{
		Scenario:      keyScenario,
		Strategy:      strategy,
		MaxIterations: req.MaxIterations,
		Margin:        req.Margin,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, badRequest{err}
	}
	return &PlanResponse{
		Planner:    req.Planner,
		Tau:        res.Allocation.Step,
		Allocation: res.Allocation.Values,
		Trajectory: res.Trajectory,
		Iterations: len(res.Iterations),
		Feasible:   res.Feasible,
	}, nil
}

// planCodec is one wire form of the /v1/plan and /v1/batch replies.
// The plan flow itself is shared; a codec supplies only what differs
// between the forms. The cache stores wire bytes and the forms
// differ, so each lives in its own keyspace. (A fleet speaking both
// forms for one scenario computes the plan once per form; in
// practice hot clients standardize on one.)
type planCodec struct {
	contentType string
	// keyPrefix names the codec's plan-cache keyspace.
	keyPrefix string
	// encode renders a computed, name-free plan as the cache stores it.
	encode func(*PlanResponse) ([]byte, error)
	// withName splices the request's scenario name into a cached body.
	withName func(name string, body []byte) []byte
	// itemError renders a failed batch item's body.
	itemError func(status int, msg string) []byte
	// batch assembles a batch response from its items' bodies.
	batch func(items []BatchItem) ([]byte, error)
}

var (
	jsonPlan = &planCodec{
		contentType: "application/json",
		keyPrefix:   "plan",
		encode:      func(resp *PlanResponse) ([]byte, error) { return marshalBody(resp) },
		withName:    withScenarioName,
		itemError:   errorJSON,
		batch: func(items []BatchItem) ([]byte, error) {
			// An item embeds its /v1/plan body without the trailing
			// newline.
			for i := range items {
				items[i].Body = bytes.TrimSuffix(items[i].Body, []byte("\n"))
			}
			return marshalBody(&BatchResponse{Results: items})
		},
	}
	binaryPlan = &planCodec{
		contentType: BinaryContentType,
		keyPrefix:   "planb",
		encode:      encodePlanBinary,
		withName:    withScenarioNameBinary,
		itemError: func(status int, msg string) []byte {
			return AppendBinaryError(nil, status, msg)
		},
		batch: func(items []BatchItem) ([]byte, error) {
			return appendBatchResponseBinary(nil, items), nil
		},
	}
)

// planCodecFor picks the reply form the request negotiated.
func planCodecFor(r *http.Request) *planCodec {
	if acceptsBinary(r) {
		return binaryPlan
	}
	return jsonPlan
}

// planBody answers one plan request through the shared
// validate → cache → pipeline flow: validate and normalize, look the
// canonical key up, compute and insert on a miss (coalescing
// concurrent identical misses onto one computation), and splice the
// request's scenario name back into the cached, name-free body. It
// returns the exact wire body in the codec's form (JSON with its
// trailing newline) plus the cache disposition, and is shared
// verbatim by /v1/plan and every /v1/batch item so the two are
// byte-identical.
func (s *Server) planBody(ctx context.Context, req *PlanRequest, codec *planCodec) ([]byte, string, error) {
	if err := validatePlanRequest(req); err != nil {
		return nil, "", err
	}
	s.tel.planStrategy.Add(strategyLabel(req.Planner), 1)
	keyScenario := req.Scenario
	keyScenario.Name = ""
	key, err := plancache.Key(codec.keyPrefix, req)
	if err != nil {
		return nil, "", err
	}
	ctx, cspan := obs.StartSpan(ctx, "plan.cache")
	defer cspan.End()
	body, served, err := s.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := planResponse(ctx, req, keyScenario)
		if err != nil {
			return nil, err
		}
		return codec.encode(resp)
	})
	if err != nil {
		return nil, "", err
	}
	state := "miss"
	if served {
		state = "hit"
	}
	cspan.SetAttr("state", state)
	return codec.withName(req.Scenario.Name, body), state, nil
}

// handlePlan runs Algorithm 1 (§4.1): WPUF → balancing → feasible
// per-slot power allocation. The scenario name is presentation, not
// a planning input: the cache key and the cached body both exclude
// it, so every node naming the same scenario differently shares one
// LRU entry, and the name is spliced back in per response.
//
// Wire negotiation: a "Content-Type: application/x-dpm-plan" body is
// decoded with the binary codec, and an Accept header naming that
// type gets the binary response form; either axis defaults to JSON
// and the JSON bytes are unchanged. Errors are always JSON, and the
// trace envelope (X-Dpmd-Trace) is JSON-only — a binary response
// carries the plan record alone.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if isBinaryRequest(r) {
		raw, err := readBinaryBody(r)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		preq, err := DecodePlanRequestBinary(raw)
		if err != nil {
			s.fail(w, r, badRequest{err})
			return
		}
		req = *preq
	} else if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	if err := applyStrategyParam(r, &req.Planner); err != nil {
		s.fail(w, r, err)
		return
	}
	codec := planCodecFor(r)
	body, state, err := s.planBody(r.Context(), &req, codec)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.fail(w, r, err)
		return
	}
	if rec := obs.RecorderFrom(r.Context()); codec == jsonPlan && rec != nil && rec.Trace != nil {
		s.writeTracedPlan(w, r, body, state, rec.Trace)
		return
	}
	w.Header().Set(cacheHeader, state)
	writeBytes(w, codec.contentType, body)
}

// writeTracedPlan answers a /v1/plan request that opted in with
// "X-Dpmd-Trace: 1": the default body bytes are embedded verbatim
// (minus the trailing newline) under "response" and the span tree
// rides alongside under "trace". The plan cache stores and serves the
// same bytes whether or not the request was traced — tracing decorates
// the response, it never forks the cached payload.
func (s *Server) writeTracedPlan(w http.ResponseWriter, r *http.Request, body []byte, state string, tr *obs.Trace) {
	out, err := marshalBody(&TracedPlanResponse{
		Response: json.RawMessage(bytes.TrimSuffix(body, []byte("\n"))),
		Trace: TraceInfo{
			RequestID: w.Header().Get(requestIDHeader),
			Spans:     tr.Tree(),
		},
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set(cacheHeader, state)
	w.Header().Set(traceHeader, "1")
	writeJSONBytes(w, out)
}

// handleBatch answers N plan requests in one call. Every item runs
// the exact /v1/plan flow — same validation, same plan cache, same
// bytes — fanned across a bounded set of workers (pipeline.ForEach),
// and failures are reported per item so one bad scenario does not
// void the rest of the batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if isBinaryRequest(r) {
		raw, err := readBinaryBody(r)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		breq, err := DecodeBatchRequestBinary(raw)
		if err != nil {
			s.fail(w, r, badRequest{err})
			return
		}
		req = *breq
	} else if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	if len(req.Requests) == 0 {
		s.fail(w, r, badRequestf("at least one plan request is required"))
		return
	}
	if len(req.Requests) > scenario.MaxBatch {
		s.fail(w, r, badRequestf("%d plan requests exceed the batch limit of %d",
			len(req.Requests), scenario.MaxBatch))
		return
	}
	for i := range req.Requests {
		if err := applyStrategyParam(r, &req.Requests[i].Planner); err != nil {
			s.fail(w, r, err)
			return
		}
	}
	ctx := r.Context()
	codec := planCodecFor(r)
	results := make([]BatchItem, len(req.Requests))
	// The batch holds one worker-pool slot; its items fan out across
	// at most the same parallelism the pool would grant individual
	// requests.
	pipeline.ForEach(ctx, len(req.Requests), s.cfg.PoolSize, func(ctx context.Context, i int) {
		body, state, err := s.planBody(ctx, &req.Requests[i], codec)
		if err != nil {
			status, msg := errorBody(err)
			results[i] = BatchItem{Status: status, Body: codec.itemError(status, msg)}
			return
		}
		results[i] = BatchItem{Status: http.StatusOK, Cache: state, Body: body}
	})
	if err := ctx.Err(); err != nil {
		s.fail(w, r, err)
		return
	}
	body, err := codec.batch(results)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeBytes(w, codec.contentType, body)
}

// withScenarioName splices a scenario name into a cached, name-free
// plan body. PlanResponse declares "scenario" as its first field
// with omitempty, so the cached bytes open with {"tau":...; re-adding
// the field in declaration position yields exactly the bytes
// json.Marshal would produce for the named response, keeping hits
// byte-identical to a cold, named computation.
func withScenarioName(name string, body []byte) []byte {
	if name == "" || len(body) < 2 || body[0] != '{' || body[1] == '}' {
		return body
	}
	quoted, err := json.Marshal(name)
	if err != nil {
		return body
	}
	out := make([]byte, 0, len(body)+len(quoted)+13)
	out = append(out, `{"scenario":`...)
	out = append(out, quoted...)
	out = append(out, ',')
	return append(out, body[1:]...)
}

// handleParams runs Algorithm 2 (§4.2): enumerate and Pareto-prune
// the (n, f) table, then walk the allocation with the
// overhead-aware switching rule.
func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	var req ParamsRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	if err := scenario.ValidateGrid("allocation", req.Allocation, true); err != nil {
		s.fail(w, r, err)
		return
	}
	hw := req.Hardware.WithDefaults()
	req.Hardware = &hw // canonicalize for the cache key
	if _, err := hw.ParamsConfig(); err != nil {
		s.fail(w, r, err)
		return
	}
	key, err := plancache.Key("params", req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.respondCached(w, r, key, func(ctx context.Context) (any, error) {
		table, _, err := pipeline.Table(ctx, req.Hardware)
		if err != nil {
			return nil, err
		}
		steps := table.Plan(req.Allocation.Values, req.Allocation.Step)
		resp := &ParamsResponse{
			Steps: make([]ParamsStep, len(steps)),
			Table: table.Points(),
		}
		for i, st := range steps {
			resp.Steps[i] = ParamsStep{
				Slot:        st.Slot,
				AllocatedW:  st.Allocated,
				N:           st.Point.N,
				FrequencyHz: st.Point.F,
				VoltageV:    st.Point.V,
				PowerW:      st.Point.Power,
				Perf:        st.Point.Perf,
				Switched:    st.Switched,
				OverheadJ:   st.OverheadEnergy,
			}
		}
		return resp, nil
	})
}

// handleReplan runs the Algorithm 3 runtime update (§4.3): restore
// the manager's state, apply the reported planned-vs-actual slot
// energies, and return the redistributed plan plus the next
// checkpoint.
func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	var req ReplanRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	pcfg, pol, err := scenarioParams(req.Scenario, req.Hardware, req.Policy)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	reports := make([]pipeline.SlotReport, len(req.Slots))
	for i, rep := range req.Slots {
		reports[i] = pipeline.SlotReport(rep)
	}
	mgr, err := pipeline.ReplayWith(r.Context(), req.Planner, req.Scenario, pcfg, pol, req.State, reports)
	if err != nil {
		s.fail(w, r, badRequest{err})
		return
	}
	body, err := marshalBody(&ReplanResponse{
		Plan:    mgr.PlanSnapshot(),
		ChargeJ: mgr.Charge(),
		Slot:    mgr.Slot(),
		State:   mgr.Checkpoint(),
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSONBytes(w, body)
}

// handleSimulate runs a bounded closed-loop simulation: the analytic
// manager/battery model by default, or the discrete-event PAMA board
// when machine is set.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	pcfg, pol, err := scenarioParams(req.Scenario, req.Hardware, req.Policy)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	limit := scenario.MaxPeriods
	if req.Machine {
		limit = scenario.MaxMachinePeriods
	}
	if req.Periods < 1 || req.Periods > limit {
		s.fail(w, r, badRequestf("periods %d outside [1, %d]", req.Periods, limit))
		return
	}
	var resp *SimulateResponse
	if req.Machine {
		resp, err = simulateMachine(r.Context(), req, pcfg, pol)
	} else {
		resp, err = simulateAnalytic(r.Context(), req, pcfg, pol)
	}
	if err != nil {
		s.fail(w, r, err)
		return
	}
	body, err := marshalBody(resp)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSONBytes(w, body)
}

func simulateAnalytic(ctx context.Context, req SimulateRequest, pcfg params.Config, pol dpm.RedistributePolicy) (*SimulateResponse, error) {
	bm, err := parseBattery(req.Battery)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Simulate(ctx, pipeline.SimSpec{
		Scenario:       req.Scenario,
		Planner:        req.Planner,
		Params:         pcfg,
		Policy:         pol,
		Battery:        bm,
		ActualCharging: req.ActualCharging,
		Periods:        req.Periods,
		SyncCharge:     true,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, badRequest{err}
	}
	e := metrics.FromSnapshot(res.Battery)
	resp := &SimulateResponse{
		Mode:           "analytic",
		WastedJ:        e.Wasted,
		UndersuppliedJ: e.Undersupplied,
		SuppliedJ:      e.Supplied,
		DeliveredJ:     e.Delivered,
		Utilization:    e.Utilization,
		Switches:       res.Switches,
		PerfSeconds:    res.PerfSeconds,
	}
	if req.IncludeRecords && len(res.Records) <= scenario.MaxRecords {
		resp.Records = make([]SimulateRecord, len(res.Records))
		for i, rec := range res.Records {
			resp.Records[i] = SimulateRecord{
				TimeS:       rec.Time,
				PlannedW:    rec.Planned,
				UsedW:       rec.UsedPower,
				N:           rec.Point.N,
				FrequencyHz: rec.Point.F,
				ChargeJ:     rec.Charge,
			}
		}
	}
	return resp, nil
}

func simulateMachine(ctx context.Context, req SimulateRequest, pcfg params.Config, pol dpm.RedistributePolicy) (*SimulateResponse, error) {
	if req.Battery != "" && req.Battery != "net-flow" {
		return nil, badRequestf("machine mode models the battery itself; battery %q is not selectable", req.Battery)
	}
	scale := req.EventScale
	if scale == 0 {
		scale = 0.1
	}
	if !scenario.IsFinite(scale) || scale < 0 || scale > 10 {
		return nil, badRequestf("eventScale %g outside [0, 10]", scale)
	}
	res, err := pipeline.SimulateMachine(ctx, pipeline.MachineSpec{
		Scenario:       req.Scenario,
		Planner:        req.Planner,
		Params:         pcfg,
		Policy:         pol,
		ActualCharging: req.ActualCharging,
		Periods:        req.Periods,
		EventScale:     scale,
		Seed:           req.Seed,
		// Hostile rate × horizon products are rejected before any
		// trace is drawn, so they cost a cheap 400, not a wedged pool
		// slot.
		MaxExpectedEvents: scenario.MaxMachineEvents,
		ExecuteDSP:        false,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		var ve *scenario.Error
		if errors.As(err, &ve) {
			return nil, err
		}
		return nil, fmt.Errorf("machine run: %w", err)
	}
	e := metrics.FromSnapshot(res.Battery)
	resp := &SimulateResponse{
		Mode:           "machine",
		WastedJ:        e.Wasted,
		UndersuppliedJ: e.Undersupplied,
		SuppliedJ:      e.Supplied,
		DeliveredJ:     e.Delivered,
		Utilization:    e.Utilization,
		EventsArrived:  res.EventsArrived,
		TasksCompleted: res.TasksCompleted,
		MeanLatencyS:   res.MeanLatencySeconds,
		EnergyUsedJ:    res.EnergyUsed,
	}
	if req.IncludeRecords && len(res.Records) <= scenario.MaxRecords {
		resp.Records = make([]SimulateRecord, len(res.Records))
		for i, rec := range res.Records {
			resp.Records[i] = SimulateRecord{
				TimeS:       rec.Time,
				PlannedW:    rec.Planned,
				UsedW:       rec.UsedPower,
				N:           rec.TargetN,
				FrequencyHz: rec.TargetF,
				ChargeJ:     rec.Charge,
			}
		}
	}
	return resp, nil
}

// handleHealthz reports liveness: the process is up and serving.
// It stays 200 through a graceful drain — restarting an instance
// because it is draining would defeat the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReadyz reports readiness: 200 while accepting work, 503 the
// moment graceful drain begins, so load balancers stop routing to
// this instance before its listener closes. Liveness (/healthz) and
// readiness are deliberately separate signals.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeUnavailable(w, time.Second, "draining; not ready")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"status":"ready"}`)
}

// handleMetrics renders the typed Prometheus families from the
// registry: request and pipeline-stage histograms, error counters,
// per-shard cache counters, admission, fleet and ingestion families,
// and runtime gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.tel.registry.WriteProm(w) //nolint:errcheck
}

// Start binds the configured address and serves in the background.
// Use Addr to learn the bound address (":0" picks a free port) and
// Shutdown to stop.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return fmt.Errorf("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	if s.cfg.DebugAddr != "" {
		dln, err := net.Listen("tcp", s.cfg.DebugAddr)
		if err != nil {
			ln.Close() //nolint:errcheck
			return fmt.Errorf("server: listen debug %s: %w", s.cfg.DebugAddr, err)
		}
		s.debugLn = dln
		s.debugSrv = &http.Server{Handler: debugMux()}
		go s.debugSrv.Serve(dln) //nolint:errcheck
	}
	if s.ingest != nil {
		if err := s.ingest.Start(); err != nil {
			if s.debugLn != nil {
				s.debugLn.Close() //nolint:errcheck
				s.debugLn, s.debugSrv = nil, nil
			}
			ln.Close() //nolint:errcheck
			return fmt.Errorf("server: %w", err)
		}
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.serveErr = make(chan error, 1)
	go func() {
		err := s.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
		}
		close(s.serveErr)
	}()
	debugAddr := ""
	if s.debugLn != nil {
		debugAddr = s.debugLn.Addr().String()
	}
	if s.cfg.AccessLog != nil {
		s.cfg.AccessLog.Event("listening",
			obs.F("addr", ln.Addr().String()),
			obs.F("pool", s.cfg.PoolSize),
			obs.F("cache", s.cfg.CacheEntries),
			obs.F("timeout", s.cfg.RequestTimeout.String()),
			obs.F("debug_addr", debugAddr))
	}
	return nil
}

// debugMux builds the pprof handler tree on a private mux rather than
// http.DefaultServeMux, so importing net/http/pprof never leaks the
// profiler onto the API listener.
func debugMux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// DebugAddr returns the bound pprof listener address, or "" when no
// debug listener is configured or the server has not started.
func (s *Server) DebugAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// Shutdown stops accepting connections and drains in-flight requests
// until they complete or ctx expires. Readiness flips first: /readyz
// answers 503 immediately, then the listener stays open for
// Config.DrainGrace so load balancers polling readiness observe
// not-ready before connections start being refused.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	errCh := s.serveErr
	debugSrv := s.debugSrv
	s.mu.Unlock()
	if srv == nil {
		// Never started (handler-only embedding): there are no in-flight
		// requests to drain, but the ingestion daemon and the fleet
		// may be running. The daemon stops first — its flushes call
		// into the fleet.
		if s.ingest != nil {
			s.ingest.Close()
		}
		s.fleet.Close()
		return nil
	}
	if debugSrv != nil {
		// The profiler has no in-flight work worth draining; close it
		// immediately so a hung profile stream cannot stall shutdown.
		debugSrv.Close() //nolint:errcheck
	}
	// Flip readiness before closing anything; the grace window runs
	// only on the first Shutdown call so concurrent callers do not
	// stack delays.
	if s.draining.CompareAndSwap(false, true) && s.cfg.DrainGrace > 0 {
		holdCtx(ctx, s.cfg.DrainGrace)
	}
	// The ingestion daemon stops before the fleet on every path: its
	// flush loop ticks fleet sessions, so the ordering guarantees no
	// flush ever observes a closed fleet.
	closeLoops := func() {
		if s.ingest != nil {
			s.ingest.Close()
		}
		s.fleet.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		closeLoops()
		return fmt.Errorf("server: shutdown: %w", err)
	}
	if errCh != nil {
		if err, ok := <-errCh; ok && err != nil {
			closeLoops()
			return err
		}
	}
	// In-flight ticks have drained with the listener; closing the
	// fleet last means no request ever observes a closed fleet during
	// a graceful shutdown. Checkpoints still live
	// here had no /v1/fleet/drain call during the grace window; they
	// are dropped with the process, exactly like the stateless flow
	// dropping an unsent checkpoint.
	closeLoops()
	if s.cfg.AccessLog != nil {
		s.cfg.AccessLog.Event("shutdown")
	}
	return nil
}

// Run starts the server and blocks until ctx is cancelled, then
// shuts down gracefully within shutdownTimeout.
func (s *Server) Run(ctx context.Context, shutdownTimeout time.Duration) error {
	if err := s.Start(); err != nil {
		return err
	}
	s.mu.Lock()
	errCh := s.serveErr
	s.mu.Unlock()
	select {
	case <-ctx.Done():
	case err, ok := <-errCh:
		if ok && err != nil {
			return err
		}
		return nil
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	return s.Shutdown(sctx)
}

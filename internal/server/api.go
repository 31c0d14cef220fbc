package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dpm/internal/alloc"
	"dpm/internal/dpm"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/scenario"
	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// Wire types for the dpmd JSON API. Each request embeds the same
// trace.Scenario wire form cmd/dpmsim -config loads, so a scenario
// file works unchanged as a request body; schedules use the
// schedule.Grid form {"step": τ, "values": [...]}.
//
// Input bounds live in internal/scenario — the canonical validation
// path shared with the library facade and the CLI tools. The HTTP
// body limit (Config.MaxBodyBytes) caps raw size; the scenario bounds
// cap the *work* a single request may demand.

// apiError is the structured error body every non-2xx response
// carries.
type apiError struct {
	// Error is a human-readable description of what was wrong with
	// the request (or, for 5xx, with the server).
	Error string `json:"error"`
	// Status echoes the HTTP status code.
	Status int `json:"status"`
}

// badRequest wraps a client-input error so handlers can distinguish
// it from internal failures.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// badRequestf builds a 400-class error.
func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// httpError pins an explicit status code onto an error, for the
// non-400/500 cases (oversized body → 413, expired deadline → 503).
type httpError struct {
	status int
	err    error
}

func (e httpError) Error() string { return e.err.Error() }
func (e httpError) Unwrap() error { return e.err }

// Hardware is the canonical hardware block (internal/scenario): the
// board Algorithm 2 optimizes for, defaulting to the paper's PAMA
// configuration.
type Hardware = scenario.Hardware

// PlanRequest asks for an Algorithm 1 power allocation.
type PlanRequest struct {
	// Scenario is the planning environment: charging and usage
	// schedules, optional weight, battery band.
	Scenario trace.Scenario `json:"scenario"`
	// Strategy selects the arc-reshaping flavor: "proportional"
	// (default, the paper's formula) or "even".
	Strategy string `json:"strategy,omitempty"`
	// Planner selects the planner backend: "paper" (default), "yds"
	// or "bunde" (pipeline.Strategies lists the registry). The
	// ?strategy= query parameter is shorthand for this field. The
	// default is canonicalized to "" so default requests keep their
	// pre-registry wire bytes.
	Planner string `json:"planner,omitempty"`
	// MaxIterations bounds the Algorithm 1 driver (0 = default 16).
	MaxIterations int `json:"maxIterations,omitempty"`
	// Margin keeps a fraction of the battery band clear at each end
	// (0 ≤ margin < 0.5).
	Margin float64 `json:"margin,omitempty"`
}

// PlanResponse is the computed allocation.
type PlanResponse struct {
	// Scenario echoes the request's scenario name.
	Scenario string `json:"scenario,omitempty"`
	// Planner names the backend that produced the plan; empty means
	// the default paper planner (default responses stay byte-identical
	// to the pre-registry wire form). Declared between Scenario and
	// Tau so the cached, name-free body still opens with a field the
	// scenario-name splice can prepend to.
	Planner string `json:"planner,omitempty"`
	// Tau is the slot width in seconds.
	Tau float64 `json:"tau"`
	// Allocation is the per-slot power plan in watts.
	Allocation []float64 `json:"allocation"`
	// Trajectory is the battery energy at the len+1 slot boundaries
	// in joules.
	Trajectory []float64 `json:"trajectory"`
	// Iterations counts Algorithm 1 driver rounds.
	Iterations int `json:"iterations"`
	// Feasible reports whether the trajectory stays inside the band.
	Feasible bool `json:"feasible"`
}

// BatchRequest plans many scenarios in one call. Each item is
// processed exactly as an individual /v1/plan request — same
// validation, same cache, same bytes — across dpmd's bounded worker
// pool.
type BatchRequest struct {
	// Requests are the individual plan requests, answered in order.
	Requests []PlanRequest `json:"requests"`
}

// BatchItem is one batched request's outcome.
type BatchItem struct {
	// Status is the HTTP status the item would have received from
	// /v1/plan.
	Status int `json:"status"`
	// Cache is "hit" or "miss" for successful items.
	Cache string `json:"cache,omitempty"`
	// Body is the exact /v1/plan response body for this item —
	// a PlanResponse on success, the structured error otherwise.
	Body json.RawMessage `json:"body"`
}

// BatchResponse carries one result per request, in request order.
type BatchResponse struct {
	// Results are the per-item outcomes.
	Results []BatchItem `json:"results"`
}

// ParamsRequest asks for an Algorithm 2 (n, f) schedule for a plan.
type ParamsRequest struct {
	// Allocation is the power plan to parameterize, typically a
	// PlanResponse's allocation re-wrapped as a grid.
	Allocation *schedule.Grid `json:"allocation"`
	// Hardware describes the board; nil means the PAMA defaults.
	Hardware *Hardware `json:"hardware,omitempty"`
}

// ParamsStep is one slot of the (n, f) schedule.
type ParamsStep struct {
	// Slot indexes the period.
	Slot int `json:"slot"`
	// AllocatedW is the slot's power budget in watts.
	AllocatedW float64 `json:"allocatedW"`
	// N, FrequencyHz and VoltageV are the chosen operating point.
	N           int     `json:"n"`
	FrequencyHz float64 `json:"frequencyHz"`
	VoltageV    float64 `json:"voltageV"`
	// PowerW and Perf are the point's draw and Eq. 3 performance.
	PowerW float64 `json:"powerW"`
	Perf   float64 `json:"perf"`
	// Switched reports an operating-point change at this boundary;
	// OverheadJ is the switching energy charged for it.
	Switched  bool    `json:"switched"`
	OverheadJ float64 `json:"overheadJ"`
}

// ParamsResponse is the per-slot schedule plus the Pareto table it
// was selected from.
type ParamsResponse struct {
	// Steps is the per-slot (n, f) schedule.
	Steps []ParamsStep `json:"steps"`
	// Table is the Pareto frontier of operating points.
	Table []params.OperatingPoint `json:"table"`
}

// SlotReport is one completed slot's measured energies.
type SlotReport struct {
	// UsedJ is the energy the system actually consumed in joules.
	UsedJ float64 `json:"usedJ"`
	// SuppliedJ is the energy the source actually delivered.
	SuppliedJ float64 `json:"suppliedJ"`
}

// ReplanRequest applies Algorithm 3: given the manager's run-time
// state and one or more completed slots' planned-vs-actual energies,
// redistribute the deviation over the future window.
type ReplanRequest struct {
	// Scenario is the planning environment the state belongs to.
	Scenario trace.Scenario `json:"scenario"`
	// Hardware describes the board; nil means the PAMA defaults.
	Hardware *Hardware `json:"hardware,omitempty"`
	// Policy selects the redistribution flavor: "proportional"
	// (default) or "even".
	Policy string `json:"policy,omitempty"`
	// Planner selects the backend the baseline plan comes from:
	// "paper" (default), "yds" or "bunde". A checkpoint's plan takes
	// precedence once restored.
	Planner string `json:"planner,omitempty"`
	// State is the manager checkpoint to resume from; nil means a
	// fresh period start.
	State *dpm.State `json:"state,omitempty"`
	// Slots reports the completed slots, oldest first.
	Slots []SlotReport `json:"slots"`
}

// ReplanResponse carries the updated plan and the checkpoint to send
// with the next replan call.
type ReplanResponse struct {
	// Plan is the updated per-period allocation in watts.
	Plan []float64 `json:"plan"`
	// ChargeJ is the manager's battery-charge estimate in joules.
	ChargeJ float64 `json:"chargeJ"`
	// Slot is the absolute slot counter after the reports.
	Slot int `json:"slot"`
	// State is the full checkpoint for the next request.
	State dpm.State `json:"state"`
}

// SimulateRequest runs a bounded closed-loop simulation.
type SimulateRequest struct {
	// Scenario is the planning environment.
	Scenario trace.Scenario `json:"scenario"`
	// Hardware describes the board; nil means the PAMA defaults.
	Hardware *Hardware `json:"hardware,omitempty"`
	// Periods is the horizon in charging periods (1 ≤ p ≤ 64
	// analytic, ≤ 8 machine).
	Periods int `json:"periods"`
	// Policy selects the Algorithm 3 flavor: "proportional"
	// (default) or "even".
	Policy string `json:"policy,omitempty"`
	// Planner selects the backend the initial plan comes from:
	// "paper" (default), "yds" or "bunde". Algorithm 3 still
	// redistributes at runtime either way.
	Planner string `json:"planner,omitempty"`
	// Battery selects intra-slot semantics: "net-flow" (default) or
	// "sequential".
	Battery string `json:"battery,omitempty"`
	// ActualCharging is what the source really delivers; nil means
	// the expectation holds.
	ActualCharging *schedule.Grid `json:"actualCharging,omitempty"`
	// Machine runs the discrete-event PAMA board simulation with a
	// Poisson event trace instead of the analytic model.
	Machine bool `json:"machine,omitempty"`
	// EventScale and Seed drive the machine-mode event trace.
	EventScale float64 `json:"eventScale,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	// IncludeRecords returns per-slot rows (bounded to 1024 slots).
	IncludeRecords bool `json:"includeRecords,omitempty"`
}

// SimulateRecord is one per-slot row of a simulate response.
type SimulateRecord struct {
	// TimeS is the slot start in seconds.
	TimeS float64 `json:"timeS"`
	// PlannedW and UsedW are the plan's and the realized draw.
	PlannedW float64 `json:"plannedW"`
	UsedW    float64 `json:"usedW"`
	// N and FrequencyHz are the operating point run.
	N           int     `json:"n"`
	FrequencyHz float64 `json:"frequencyHz"`
	// ChargeJ is the battery at slot end.
	ChargeJ float64 `json:"chargeJ"`
}

// SimulateResponse summarizes the run in the paper's §5 metrics.
type SimulateResponse struct {
	// Mode is "analytic" or "machine".
	Mode string `json:"mode"`
	// WastedJ and UndersuppliedJ are the Table 1 penalties.
	WastedJ        float64          `json:"wastedJ"`
	UndersuppliedJ float64          `json:"undersuppliedJ"`
	SuppliedJ      float64          `json:"suppliedJ"`
	DeliveredJ     float64          `json:"deliveredJ"`
	Utilization    float64          `json:"utilization"`
	Switches       int              `json:"switches,omitempty"`
	PerfSeconds    float64          `json:"perfSeconds,omitempty"`
	EventsArrived  int              `json:"eventsArrived,omitempty"`
	TasksCompleted int              `json:"tasksCompleted,omitempty"`
	MeanLatencyS   float64          `json:"meanLatencyS,omitempty"`
	EnergyUsedJ    float64          `json:"energyUsedJ,omitempty"`
	Records        []SimulateRecord `json:"records,omitempty"`
}

// deadlineHeader lets a client declare its remaining time budget as
// a Go duration string (e.g. "750ms"). The server clamps the
// request's effective timeout to it, so admission control can shed a
// request whose predicted queue wait already exceeds what the caller
// will tolerate — instead of burning a worker slot on an answer
// nobody is waiting for.
const deadlineHeader = "X-Dpmd-Deadline"

// clientDeadline parses the deadline header; absent means no client
// bound (0). Malformed or non-positive values are client errors.
func clientDeadline(r *http.Request) (time.Duration, error) {
	v := r.Header.Get(deadlineHeader)
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, badRequestf("invalid %s header %q: %v", deadlineHeader, v, err)
	}
	if d <= 0 {
		return 0, badRequestf("invalid %s header %q: duration must be positive", deadlineHeader, v)
	}
	return d, nil
}

// decodeJSON reads one JSON value from the (already size-limited)
// body into dst, rejecting trailing garbage. Decode errors are
// client errors; an oversized body gets the conventional 413 so
// clients and proxies can tell "shrink the payload" from "malformed
// JSON".
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return httpError{
				status: http.StatusRequestEntityTooLarge,
				err:    fmt.Errorf("request body exceeds %d bytes", maxErr.Limit),
			}
		}
		return badRequestf("decoding request: %v", err)
	}
	if dec.More() {
		return badRequestf("request body has trailing data after the JSON value")
	}
	// Drain any whitespace so keep-alive connections stay reusable.
	io.Copy(io.Discard, r.Body) //nolint:errcheck
	return nil
}

// readBinaryBody reads the (already size-limited) request body for a
// binary-codec decode, mapping an oversized body to the same 413 the
// JSON path produces.
func readBinaryBody(r *http.Request) ([]byte, error) {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, httpError{
				status: http.StatusRequestEntityTooLarge,
				err:    fmt.Errorf("request body exceeds %d bytes", maxErr.Limit),
			}
		}
		return nil, badRequestf("reading request: %v", err)
	}
	return b, nil
}

// canonicalJSON marshals v compactly with a trailing newline — the
// byte form the cache stores and the wire carries, so a cached reply
// is byte-identical to the cold one. A JSON-unsupported value (NaN
// or ±Inf that slipped through the input bounds into a computed
// plan) is reported as a client error: the inputs were numerically
// out of range, not the server broken.
func canonicalJSON(v any) ([]byte, error) {
	e := encoderPool.Get().(*pooledEncoder)
	defer encoderPool.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		var unsup *json.UnsupportedValueError
		if errors.As(err, &unsup) {
			return nil, badRequestf("inputs are numerically out of range: computed plan contains %s", unsup.Str)
		}
		return nil, err
	}
	// One exact-size copy out of the pooled buffer: the caller (and
	// the plan cache) owns the result outright.
	out := make([]byte, e.buf.Len())
	copy(out, e.buf.Bytes())
	return out, nil
}

// pooledEncoder reuses the encode buffer across responses.
// json.Encoder produces exactly json.Marshal's bytes plus the
// trailing newline the wire form wants, and a value error (the only
// kind bytes.Buffer can surface) does not latch, so a pooled encoder
// stays reusable after rejecting a NaN.
type pooledEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encoderPool = sync.Pool{New: func() any {
	e := new(pooledEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// parseStrategy maps the wire name onto the alloc constant.
func parseStrategy(s string) (alloc.AdjustStrategy, error) {
	switch s {
	case "", "proportional":
		return alloc.RemapProportional, nil
	case "even":
		return alloc.RemapEven, nil
	default:
		return 0, badRequestf("unknown strategy %q (want proportional or even)", s)
	}
}

// parsePolicy maps the wire name onto the dpm constant.
func parsePolicy(s string) (dpm.RedistributePolicy, error) {
	switch s {
	case "", "proportional":
		return dpm.Proportional, nil
	case "even":
		return dpm.Even, nil
	default:
		return 0, badRequestf("unknown policy %q (want proportional or even)", s)
	}
}

// parseBattery maps the wire name onto the dpm battery model.
func parseBattery(s string) (dpm.BatteryModel, error) {
	switch s {
	case "", "net-flow":
		return dpm.NetFlow, nil
	case "sequential":
		return dpm.Sequential, nil
	default:
		return 0, badRequestf("unknown battery model %q (want net-flow or sequential)", s)
	}
}

// validatePlanRequest normalizes and bounds a plan request through
// the canonical pipeline validation; the returned request has every
// default spelled out (strategy, maxIterations) so semantically
// identical requests canonicalize to one cache key. The planner
// selector goes the other way: the default backend normalizes to the
// *empty* string, so default requests render exactly as they did
// before the strategy registry existed and "paper" shares the
// default's cache entry, while every non-default backend is spelled
// out in the key and the body.
func validatePlanRequest(req *PlanRequest) error {
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		return err
	}
	if _, err := pipeline.StrategyByName(req.Planner); err != nil {
		return err
	}
	spec := pipeline.PlanSpec{
		Scenario:      req.Scenario,
		Strategy:      strategy,
		MaxIterations: req.MaxIterations,
		Margin:        req.Margin,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if req.Strategy == "" {
		req.Strategy = "proportional"
	}
	if req.Planner == pipeline.DefaultStrategy {
		req.Planner = ""
	}
	if req.MaxIterations == 0 {
		req.MaxIterations = 16 // alloc.Compute's documented default
	}
	return nil
}

// strategyQueryParam is the /v1/plan and /v1/batch query-string
// shorthand for PlanRequest.Planner.
const strategyQueryParam = "strategy"

// applyStrategyParam folds ?strategy= into a request's planner
// selector. The body field and the query parameter naming different
// backends is ambiguous and rejected; naming the same one (or the
// body leaving it empty) is fine. For /v1/batch the parameter applies
// to every item.
func applyStrategyParam(r *http.Request, planner *string) error {
	q := r.URL.Query().Get(strategyQueryParam)
	if q == "" {
		return nil
	}
	if *planner != "" && *planner != q {
		return badRequestf("?strategy=%s conflicts with planner %q in the request body", q, *planner)
	}
	*planner = q
	return nil
}

// scenarioParams validates a request's scenario, policy and hardware
// block and returns the pieces the pipeline specs consume.
func scenarioParams(s trace.Scenario, hw *Hardware, policy string) (params.Config, dpm.RedistributePolicy, error) {
	if err := scenario.Validate(s); err != nil {
		return params.Config{}, 0, err
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return params.Config{}, 0, err
	}
	pcfg, err := hw.WithDefaults().ParamsConfig()
	if err != nil {
		return params.Config{}, 0, err
	}
	return pcfg, pol, nil
}

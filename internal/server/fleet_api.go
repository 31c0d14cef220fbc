package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"dpm/internal/dpm"
	"dpm/internal/fleet"
	"dpm/internal/pipeline"
	"dpm/internal/scenario"
	"dpm/internal/trace"
)

// Fleet endpoints ---------------------------------------------------
//
// POST /v1/fleet/register, /v1/fleet/tick, /v1/fleet/bulk-tick and
// /v1/fleet/drain expose internal/fleet: stateful Algorithm 3
// sessions. Where /v1/replan round-trips a full checkpoint per call,
// a registered device streams slot reports and gets delta replans
// back; the checkpoint only crosses the wire on register (resuming),
// on request (includeState), at eviction handback, and at drain.
//
// Error mapping extends the stateless conventions:
//
//	unknown device          → 404 (register first)
//	idle-evicted session    → 410 (re-register resumes the parked state)
//	corrupt checkpoint      → 400 (structured body, same as /v1/replan)
//	session cap reached     → 503 + Retry-After
//	manager closed          → 503 + Retry-After

// FleetRegisterRequest creates (or resumes, or replaces) one device's
// session.
type FleetRegisterRequest struct {
	// DeviceID is the session key; subsequent ticks carry only this.
	DeviceID string `json:"deviceId"`
	// Scenario is the device's planning environment.
	Scenario trace.Scenario `json:"scenario"`
	// Hardware describes the board; nil means the PAMA defaults.
	Hardware *Hardware `json:"hardware,omitempty"`
	// Policy selects the Algorithm 3 flavor: "proportional" (default)
	// or "even".
	Policy string `json:"policy,omitempty"`
	// Planner selects the strategy backend the session's initial plan
	// comes from: "paper" (default), "yds" or "bunde". A resumed
	// checkpoint's plan takes precedence.
	Planner string `json:"planner,omitempty"`
	// State, when set, is a checkpoint to resume from — a device
	// migrating in from the stateless /v1/replan flow or re-joining
	// after a drain handed its checkpoint back. Omitted, a parked
	// (idle-evicted) checkpoint for the device is resumed instead.
	State *dpm.State `json:"state,omitempty"`
}

// FleetRegisterResponse reports the session's starting point.
type FleetRegisterResponse struct {
	// DeviceID echoes the session key.
	DeviceID string `json:"deviceId"`
	// Slot, ChargeJ and Plan mirror the live session manager.
	Slot    int       `json:"slot"`
	ChargeJ float64   `json:"chargeJ"`
	Plan    []float64 `json:"plan"`
	// Resumed reports a restored checkpoint (explicit or parked);
	// Replaced that an existing live session was displaced.
	Resumed  bool `json:"resumed,omitempty"`
	Replaced bool `json:"replaced,omitempty"`
}

// FleetTickRequest streams one device's completed-slot telemetry.
type FleetTickRequest struct {
	// DeviceID names the registered session.
	DeviceID string `json:"deviceId"`
	// Seq, when non-zero, deduplicates retries: a tick repeating the
	// session's last seq is answered from memory without re-applying
	// its slot reports. Clients that retry ticks must set it.
	Seq uint64 `json:"seq,omitempty"`
	// Slots reports the completed slots, oldest first (same bounds as
	// /v1/replan).
	Slots []SlotReport `json:"slots"`
	// IncludeState returns the full checkpoint with the response —
	// the escape hatch back to the stateless flow.
	IncludeState bool `json:"includeState,omitempty"`
}

// FleetTickResponse is the delta replan a tick returns. Plan, ChargeJ
// and Slot carry exactly the values the equivalent /v1/replan call
// would return (the byte-parity tests pin this).
type FleetTickResponse struct {
	// Plan is the updated per-period allocation in watts.
	Plan []float64 `json:"plan"`
	// ChargeJ is the session's battery-charge estimate in joules.
	ChargeJ float64 `json:"chargeJ"`
	// Slot is the absolute slot counter after the reports.
	Slot int `json:"slot"`
	// Replans counts the reports whose deviation triggered an
	// Algorithm 3 redistribution.
	Replans int `json:"replans"`
	// Replayed marks a duplicate-seq tick answered from session
	// memory.
	Replayed bool `json:"replayed,omitempty"`
	// State is the checkpoint, only when requested.
	State *dpm.State `json:"state,omitempty"`
}

// FleetBulkTickRequest ticks many devices in one call — a gateway
// batching its downstream fleet's telemetry.
type FleetBulkTickRequest struct {
	// Ticks are the individual tick requests, answered in order.
	Ticks []FleetTickRequest `json:"ticks"`
}

// FleetBulkTickResponse carries one result per tick, in request
// order. Items reuse the /v1/batch envelope: Status is the HTTP
// status the tick would have received individually and Body its exact
// response body (a FleetTickResponse or the structured error).
type FleetBulkTickResponse struct {
	// Results are the per-item outcomes.
	Results []BatchItem `json:"results"`
}

// FleetDrainedDevice is one removed session's final checkpoint.
type FleetDrainedDevice struct {
	// DeviceID names the session.
	DeviceID string `json:"deviceId"`
	// Slot and ChargeJ summarize where it stopped.
	Slot    int     `json:"slot"`
	ChargeJ float64 `json:"chargeJ"`
	// State is the full checkpoint; re-registering with it resumes
	// byte-identically.
	State dpm.State `json:"state"`
	// Evicted marks checkpoints recovered from the parked
	// (idle-evicted) table rather than a live session.
	Evicted bool `json:"evicted,omitempty"`
}

// FleetDrainResponse returns every session's final checkpoint exactly
// once, sorted by device id.
type FleetDrainResponse struct {
	// Devices are the drained sessions.
	Devices []FleetDrainedDevice `json:"devices"`
	// Count is len(devices).
	Count int `json:"count"`
}

// fleetErrorBody maps a fleet error onto its HTTP status and message,
// extending the shared errorBody conventions with the session
// lifecycle statuses.
func fleetErrorBody(err error) (int, string) {
	var bc *fleet.BadCheckpointError
	switch {
	case errors.As(err, &bc):
		return http.StatusBadRequest, bc.Error()
	case errors.Is(err, fleet.ErrUnknownDevice):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, fleet.ErrEvicted):
		return http.StatusGone, err.Error()
	case errors.Is(err, fleet.ErrFull), errors.Is(err, fleet.ErrClosed):
		return http.StatusServiceUnavailable, err.Error()
	}
	return errorBody(err)
}

// fleetFail writes the structured error response for a fleet error.
// Capacity and shutdown 503s carry a Retry-After like every other
// overload response.
func (s *Server) fleetFail(w http.ResponseWriter, r *http.Request, err error) {
	status, msg := fleetErrorBody(err)
	if status == http.StatusServiceUnavailable {
		setRetryAfter(w, s.adm.RetryAfter(r.URL.Path))
	}
	writeError(w, status, msg)
}

// Fleet exposes the session manager (tests, embedders).
func (s *Server) Fleet() *fleet.Manager { return s.fleet }

// handleFleetRegister creates one device's session: validate the
// scenario exactly as /v1/replan would, build the live manager, and
// install it in the device's partition. A parked checkpoint (idle
// eviction) is resumed automatically; an explicit one that fails
// validation is a structured 400 before any session state changes.
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req FleetRegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	pcfg, pol, err := scenarioParams(req.Scenario, req.Hardware, req.Policy)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	res, err := s.fleet.Register(r.Context(), fleet.RegisterSpec{
		DeviceID: req.DeviceID,
		Scenario: req.Scenario,
		Params:   pcfg,
		Policy:   pol,
		Planner:  req.Planner,
		State:    req.State,
	})
	if err != nil {
		s.fleetFail(w, r, err)
		return
	}
	s.ingestTrack(&req)
	body, err := marshalBody(&FleetRegisterResponse{
		DeviceID: req.DeviceID,
		Slot:     res.Slot,
		ChargeJ:  res.ChargeJ,
		Plan:     res.Plan,
		Resumed:  res.Resumed,
		Replaced: res.Replaced,
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

// tickSpec converts one wire tick into the fleet's form.
func tickSpec(req *FleetTickRequest) fleet.TickSpec {
	reports := make([]pipeline.SlotReport, len(req.Slots))
	for i, rep := range req.Slots {
		reports[i] = pipeline.SlotReport(rep)
	}
	return fleet.TickSpec{
		DeviceID:     req.DeviceID,
		Seq:          req.Seq,
		Reports:      reports,
		IncludeState: req.IncludeState,
	}
}

// tickResponse renders one tick result's exact wire body — shared by
// /v1/fleet/tick and every /v1/fleet/bulk-tick item so the two are
// byte-identical.
func tickResponse(res *fleet.TickResult) ([]byte, error) {
	return marshalBody(&FleetTickResponse{
		Plan:     res.Plan,
		ChargeJ:  res.ChargeJ,
		Slot:     res.Slot,
		Replans:  res.Replans,
		Replayed: res.Replayed,
		State:    res.State,
	})
}

// handleFleetTick applies one device's slot reports under its
// session partition's lock and returns the delta replan.
func (s *Server) handleFleetTick(w http.ResponseWriter, r *http.Request) {
	var req FleetTickRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	res, err := s.fleet.Tick(r.Context(), tickSpec(&req))
	if err != nil {
		s.fleetFail(w, r, err)
		return
	}
	body, err := tickResponse(&res)
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

// handleFleetBulkTick ticks N devices in one call through one
// fleet.Manager.TickBatch: items apply in request order per device,
// each partition's lock is taken once, and failures are reported per
// item so one unknown device does not void the rest of the batch.
// Every item's body is exactly what /v1/fleet/tick would answer.
func (s *Server) handleFleetBulkTick(w http.ResponseWriter, r *http.Request) {
	var req FleetBulkTickRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	if len(req.Ticks) == 0 {
		s.fail(w, r, badRequestf("at least one tick is required"))
		return
	}
	if len(req.Ticks) > scenario.MaxBatch {
		s.fail(w, r, badRequestf("%d ticks exceed the batch limit of %d",
			len(req.Ticks), scenario.MaxBatch))
		return
	}
	n := len(req.Ticks)
	specs := make([]fleet.TickSpec, n)
	for i := range req.Ticks {
		specs[i] = tickSpec(&req.Ticks[i])
	}
	res := make([]fleet.TickResult, n)
	errs := make([]error, n)
	s.fleet.TickBatch(r.Context(), specs, res, errs)
	results := make([]BatchItem, n)
	for i := range results {
		var body []byte
		err := errs[i]
		if err == nil {
			body, err = tickResponse(&res[i])
		}
		if err != nil {
			status, msg := fleetErrorBody(err)
			results[i] = BatchItem{Status: status, Body: errorJSON(status, msg)}
			continue
		}
		results[i] = BatchItem{
			Status: http.StatusOK,
			Body:   json.RawMessage(bytes.TrimSuffix(body, []byte("\n"))),
		}
	}
	if err := r.Context().Err(); err != nil {
		s.fail(w, r, err)
		return
	}
	body, err := marshalBody(&FleetBulkTickResponse{Results: results})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSONBytes(w, body)
}

// handleFleetDrain removes every session — live and parked — and
// returns each final checkpoint exactly once. Operators call it
// during the drain-grace window at shutdown (the listener is still
// accepting while /readyz already answers 503) so the whole fleet's
// state is handed back before the process exits; devices re-register
// elsewhere with their returned checkpoints.
func (s *Server) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	drained, err := s.fleet.Drain(r.Context())
	if err != nil {
		s.fleetFail(w, r, err)
		return
	}
	devices := make([]FleetDrainedDevice, len(drained))
	ids := make([]string, len(drained))
	for i, d := range drained {
		devices[i] = FleetDrainedDevice{
			DeviceID: d.DeviceID,
			Slot:     d.Slot,
			ChargeJ:  d.ChargeJ,
			State:    d.State,
			Evicted:  d.Evicted,
		}
		ids[i] = d.DeviceID
	}
	s.ingestUntrack(ids)
	body, err := marshalBody(&FleetDrainResponse{Devices: devices, Count: len(devices)})
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

// FleetStats snapshots the session manager's counters.
func (s *Server) FleetStats() fleet.Stats { return s.fleet.Stats() }

// writeFleetProm renders the dpmd_fleet_* families:
//
//   - dpmd_fleet_sessions_live / _parked                gauges
//   - dpmd_fleet_registrations_total / resumed / replaced / rejected
//   - dpmd_fleet_ticks_total / slot_reports / replans / replays
//   - dpmd_fleet_evictions_total / parked_drops / drains / drained_sessions
//   - dpmd_fleet_partition_sessions{partition}          gauge
//   - dpmd_fleet_partition_depth{partition}             gauge (lock waiters)
func (s *Server) writeFleetProm(w io.Writer) error {
	st := s.fleet.Stats()
	for _, g := range []struct {
		name, help string
		value      int
	}{
		{"dpmd_fleet_sessions_live", "Live fleet sessions.", st.SessionsLive},
		{"dpmd_fleet_sessions_parked", "Idle-evicted checkpoints parked for handback.", st.SessionsParked},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			g.name, g.help, g.name, g.name, g.value); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name, help string
		value      uint64
	}{
		{"dpmd_fleet_registrations_total", "Successful session registrations.", st.Registered},
		{"dpmd_fleet_resumed_total", "Registrations that restored a checkpoint (explicit or parked).", st.Resumed},
		{"dpmd_fleet_replaced_total", "Registrations that displaced an existing live session.", st.Replaced},
		{"dpmd_fleet_rejected_total", "Registrations refused at the session cap.", st.Rejected},
		{"dpmd_fleet_ticks_total", "Tick operations applied.", st.Ticks},
		{"dpmd_fleet_slot_reports_total", "Individual slot reports applied across ticks.", st.SlotReports},
		{"dpmd_fleet_replans_total", "Slot reports whose deviation triggered an Algorithm 3 redistribution.", st.Replans},
		{"dpmd_fleet_replays_total", "Duplicate-seq ticks answered from session memory.", st.Replays},
		{"dpmd_fleet_evictions_total", "Sessions idle-evicted with checkpoints parked.", st.Evictions},
		{"dpmd_fleet_parked_drops_total", "Parked checkpoints displaced by capacity pressure.", st.ParkedDrops},
		{"dpmd_fleet_drains_total", "Drain operations.", st.Drains},
		{"dpmd_fleet_drained_sessions_total", "Sessions removed by drains, each returning its checkpoint once.", st.DrainedSessions},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.value); err != nil {
			return err
		}
	}
	parts := s.fleet.PartitionStats()
	for _, g := range []struct {
		name, help string
		value      func(fleet.PartitionStats) int
	}{
		{"dpmd_fleet_partition_sessions", "Live sessions by partition.",
			func(ps fleet.PartitionStats) int { return ps.Sessions }},
		{"dpmd_fleet_partition_depth", "Callers waiting for the partition lock.",
			func(ps fleet.PartitionStats) int { return ps.Depth }},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name); err != nil {
			return err
		}
		for i, ps := range parts {
			if _, err := fmt.Fprintf(w, "%s{partition=%q} %d\n", g.name, strconv.Itoa(i), g.value(ps)); err != nil {
				return err
			}
		}
	}
	return nil
}

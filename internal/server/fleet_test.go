package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/trace"
)

// fleetRegisterBody is the canonical Scenario I register request.
func fleetRegisterBody(t *testing.T, device string) []byte {
	t.Helper()
	b, err := canonicalJSON(FleetRegisterRequest{DeviceID: device, Scenario: trace.ScenarioI()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fleetTickBody(t *testing.T, req FleetTickRequest) []byte {
	t.Helper()
	b, err := canonicalJSON(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetRegisterTickDrain walks the whole session lifecycle over
// HTTP: register, stream ticks, drain the checkpoint back.
func TestFleetRegisterTickDrain(t *testing.T) {
	_, base := startServer(t, Config{})
	status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "walk-1"))
	if status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	var reg FleetRegisterResponse
	if err := decodeInto(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.DeviceID != "walk-1" || reg.Slot != 0 || len(reg.Plan) == 0 || reg.Resumed {
		t.Fatalf("unexpected register response %+v", reg)
	}

	status, _, body = postJSON(t, base, "/v1/fleet/tick", fleetTickBody(t, FleetTickRequest{
		DeviceID: "walk-1",
		Slots:    []SlotReport{{UsedJ: 9.5, SuppliedJ: 11.0}},
	}))
	if status != http.StatusOK {
		t.Fatalf("tick: %d %s", status, body)
	}
	var tick FleetTickResponse
	if err := decodeInto(body, &tick); err != nil {
		t.Fatal(err)
	}
	if tick.Slot != 1 || len(tick.Plan) == 0 || tick.State != nil {
		t.Fatalf("unexpected tick response %+v", tick)
	}

	status, _, body = postJSON(t, base, "/v1/fleet/drain", []byte("{}"))
	if status != http.StatusOK {
		t.Fatalf("drain: %d %s", status, body)
	}
	var drain FleetDrainResponse
	if err := decodeInto(body, &drain); err != nil {
		t.Fatal(err)
	}
	if drain.Count != 1 || len(drain.Devices) != 1 || drain.Devices[0].DeviceID != "walk-1" || drain.Devices[0].Slot != 1 {
		t.Fatalf("unexpected drain response %+v", drain)
	}
	// A drained device's checkpoint re-registers byte-compatibly.
	reReg, err := canonicalJSON(FleetRegisterRequest{
		DeviceID: "walk-1",
		Scenario: trace.ScenarioI(),
		State:    &drain.Devices[0].State,
	})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body = postJSON(t, base, "/v1/fleet/register", reReg)
	if status != http.StatusOK {
		t.Fatalf("re-register: %d %s", status, body)
	}
	if err := decodeInto(body, &reg); err != nil {
		t.Fatal(err)
	}
	if !reg.Resumed || reg.Slot != 1 {
		t.Fatalf("re-register did not resume: %+v", reg)
	}
}

// TestFleetTickReplanParity is the wire-level parity pin: a fleet tick
// with includeState must carry byte-for-byte the plan, charge, slot
// and checkpoint that the equivalent stateless /v1/replan call
// returns. The fleet layer is an optimization, never a semantic fork.
func TestFleetTickReplanParity(t *testing.T) {
	_, base := startServer(t, Config{})
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "parity-1")); status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	var state *dpm.State
	for step := 0; step < 18; step++ {
		rep := SlotReport{
			UsedJ:     8.5 + float64(step%5)*0.71,
			SuppliedJ: 10.0 + float64(step%3)*1.3,
		}
		// Stateless reference: replan with the carried checkpoint.
		replanReq, err := canonicalJSON(ReplanRequest{
			Scenario: trace.ScenarioI(),
			State:    state,
			Slots:    []SlotReport{rep},
		})
		if err != nil {
			t.Fatal(err)
		}
		status, _, replanBody := postJSON(t, base, "/v1/replan", replanReq)
		if status != http.StatusOK {
			t.Fatalf("replan %d: %d %s", step, status, replanBody)
		}
		var rr ReplanResponse
		if err := decodeInto(replanBody, &rr); err != nil {
			t.Fatal(err)
		}
		state = &rr.State

		// Fleet path: same report as a session tick.
		status, _, tickBody := postJSON(t, base, "/v1/fleet/tick", fleetTickBody(t, FleetTickRequest{
			DeviceID:     "parity-1",
			Slots:        []SlotReport{rep},
			IncludeState: true,
		}))
		if status != http.StatusOK {
			t.Fatalf("tick %d: %d %s", step, status, tickBody)
		}
		var ft FleetTickResponse
		if err := decodeInto(tickBody, &ft); err != nil {
			t.Fatal(err)
		}
		if ft.State == nil {
			t.Fatalf("tick %d: missing requested state", step)
		}
		// Re-render the tick through the replan response shape: the
		// bytes must match the stateless response exactly.
		mirror, err := canonicalJSON(ReplanResponse{
			Plan:    ft.Plan,
			ChargeJ: ft.ChargeJ,
			Slot:    ft.Slot,
			State:   *ft.State,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mirror, replanBody) {
			t.Fatalf("step %d: fleet tick diverged from /v1/replan\nfleet:  %s\nreplan: %s",
				step, mirror, replanBody)
		}
	}
}

// TestFleetBulkTick checks the batch envelope: per-item status, one
// unknown device answering 404 without voiding its siblings, and the
// OK items byte-identical to single ticks.
func TestFleetBulkTick(t *testing.T) {
	_, base := startServer(t, Config{})
	for _, id := range []string{"bulk-a", "bulk-b"} {
		if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, id)); status != http.StatusOK {
			t.Fatalf("register %s: %d %s", id, status, body)
		}
	}
	req, err := canonicalJSON(FleetBulkTickRequest{Ticks: []FleetTickRequest{
		{DeviceID: "bulk-a", Slots: []SlotReport{{UsedJ: 9.5, SuppliedJ: 11}}},
		{DeviceID: "bulk-ghost", Slots: []SlotReport{{UsedJ: 9.5, SuppliedJ: 11}}},
		{DeviceID: "bulk-b", Slots: []SlotReport{{UsedJ: 8, SuppliedJ: 10}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := postJSON(t, base, "/v1/fleet/bulk-tick", req)
	if status != http.StatusOK {
		t.Fatalf("bulk-tick: %d %s", status, body)
	}
	var res FleetBulkTickResponse
	if err := decodeInto(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("%d results, want 3", len(res.Results))
	}
	if res.Results[0].Status != http.StatusOK || res.Results[2].Status != http.StatusOK {
		t.Fatalf("healthy items: %d, %d", res.Results[0].Status, res.Results[2].Status)
	}
	if res.Results[1].Status != http.StatusNotFound {
		t.Fatalf("ghost item status %d, want 404", res.Results[1].Status)
	}
	assertStructuredError(t, res.Results[1].Body, http.StatusNotFound)
	var item FleetTickResponse
	if err := decodeInto(res.Results[0].Body, &item); err != nil {
		t.Fatal(err)
	}
	if item.Slot != 1 {
		t.Fatalf("item slot %d, want 1", item.Slot)
	}

	// Empty and oversized batches are rejected up front.
	status, _, body = postJSON(t, base, "/v1/fleet/bulk-tick", []byte(`{"ticks":[]}`))
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %s", status, body)
	}
	assertStructuredError(t, body, http.StatusBadRequest)
}

// TestFleetSessionCap: with -fleet-max-sessions 1, the second device's
// register answers 503 with Retry-After and a structured body, and
// draining frees the slot.
func TestFleetSessionCap(t *testing.T) {
	_, base := startServer(t, Config{FleetMaxSessions: 1})
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "cap-1")); status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	status, hdr, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "cap-2"))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("over-cap register: %d %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("over-cap 503 missing Retry-After")
	}
	assertStructuredError(t, body, http.StatusServiceUnavailable)
	// Replacing the existing session is always allowed at the cap.
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "cap-1")); status != http.StatusOK {
		t.Fatalf("replacement register: %d %s", status, body)
	}
	if status, _, _ := postJSON(t, base, "/v1/fleet/drain", []byte("{}")); status != http.StatusOK {
		t.Fatal("drain failed")
	}
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "cap-2")); status != http.StatusOK {
		t.Fatalf("register after drain: %d %s", status, body)
	}
}

// TestFleetLifecycleErrors covers the session state statuses: 404
// before register, 400 on a corrupt checkpoint, 410 after idle
// eviction, and the parked-state resume that clears it.
func TestFleetLifecycleErrors(t *testing.T) {
	s, base := startServer(t, Config{FleetIdleTTL: time.Nanosecond})

	tick := fleetTickBody(t, FleetTickRequest{DeviceID: "ghost", Slots: []SlotReport{{UsedJ: 1, SuppliedJ: 1}}})
	status, _, body := postJSON(t, base, "/v1/fleet/tick", tick)
	if status != http.StatusNotFound {
		t.Fatalf("unregistered tick: %d %s", status, body)
	}
	assertStructuredError(t, body, http.StatusNotFound)

	// Corrupt checkpoint: wrong plan geometry is a structured 400.
	badReg, err := canonicalJSON(FleetRegisterRequest{
		DeviceID: "bad-ckpt",
		Scenario: trace.ScenarioI(),
		State:    &dpm.State{Plan: []float64{1, 2, 3}, Slot: 0, Charge: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body = postJSON(t, base, "/v1/fleet/register", badReg)
	if status != http.StatusBadRequest {
		t.Fatalf("corrupt checkpoint: %d %s", status, body)
	}
	assertStructuredError(t, body, http.StatusBadRequest)
	if !strings.Contains(string(body), "checkpoint") {
		t.Fatalf("corrupt-checkpoint error does not name the checkpoint: %s", body)
	}

	// Idle eviction: with a nanosecond TTL the session parks on the
	// next sweep, ticks answer 410, and a bare re-register resumes.
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "evict-me")); status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	evTick := fleetTickBody(t, FleetTickRequest{DeviceID: "evict-me", Slots: []SlotReport{{UsedJ: 9.5, SuppliedJ: 11}}})
	if status, _, body := postJSON(t, base, "/v1/fleet/tick", evTick); status != http.StatusOK {
		t.Fatalf("tick: %d %s", status, body)
	}
	time.Sleep(time.Millisecond)
	if err := s.Fleet().SweepNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, _, body = postJSON(t, base, "/v1/fleet/tick", evTick)
	if status != http.StatusGone {
		t.Fatalf("evicted tick: %d %s", status, body)
	}
	assertStructuredError(t, body, http.StatusGone)
	status, _, body = postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "evict-me"))
	if status != http.StatusOK {
		t.Fatalf("resume register: %d %s", status, body)
	}
	var reg FleetRegisterResponse
	if err := decodeInto(body, &reg); err != nil {
		t.Fatal(err)
	}
	if !reg.Resumed || reg.Slot != 1 {
		t.Fatalf("eviction handback failed: %+v", reg)
	}
}

// TestFleetMetrics: the dpmd_fleet_* families render on /metrics with
// live values.
func TestFleetMetrics(t *testing.T) {
	_, base := startServer(t, Config{})
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "metrics-1")); status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	if status, _, body := postJSON(t, base, "/v1/fleet/tick", fleetTickBody(t, FleetTickRequest{
		DeviceID: "metrics-1",
		Slots:    []SlotReport{{UsedJ: 9.5, SuppliedJ: 11}},
	})); status != http.StatusOK {
		t.Fatalf("tick: %d %s", status, body)
	}
	status, body := getBody(t, base, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	page := string(body)
	for _, want := range []string{
		"dpmd_fleet_sessions_live 1",
		"dpmd_fleet_registrations_total 1",
		"dpmd_fleet_ticks_total 1",
		"dpmd_fleet_slot_reports_total 1",
		"dpmd_fleet_partition_sessions{partition=",
		"dpmd_fleet_partition_depth{partition=",
		"dpmd_fleet_sessions_parked 0",
		"dpmd_fleet_evictions_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The fleet endpoints are primed into the admission snapshot before
	// any traffic reaches them.
	for _, ep := range []string{"/v1/fleet/register", "/v1/fleet/tick", "/v1/fleet/bulk-tick", "/v1/fleet/drain"} {
		if !strings.Contains(page, fmt.Sprintf("dpmd_admission_admitted_total{endpoint=%q}", ep)) {
			t.Errorf("/metrics missing admission family for %s", ep)
		}
	}
}

// TestFleetDrainDuringGrace: the operational story for shutdown — the
// drain-grace window keeps the listener serving after /readyz flips,
// exactly so operators can pull the fleet's checkpoints out. Modeled
// on TestReadyzDrainOrdering.
func TestFleetDrainDuringGrace(t *testing.T) {
	s, base := startServer(t, Config{DrainGrace: 700 * time.Millisecond})
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "grace-1")); status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	if status, _, body := postJSON(t, base, "/v1/fleet/tick", fleetTickBody(t, FleetTickRequest{
		DeviceID: "grace-1",
		Slots:    []SlotReport{{UsedJ: 9.5, SuppliedJ: 11}},
	})); status != http.StatusOK {
		t.Fatalf("tick: %d %s", status, body)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Wait for readiness to flip — the drain has begun.
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, _ := getBody(t, base, "/readyz")
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped during shutdown")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Inside the grace window the fleet drain still works: this is the
	// checkpoint-recovery path.
	status, _, body := postJSON(t, base, "/v1/fleet/drain", []byte("{}"))
	if status != http.StatusOK {
		t.Fatalf("drain during grace: %d %s", status, body)
	}
	var drain FleetDrainResponse
	if err := decodeInto(body, &drain); err != nil {
		t.Fatal(err)
	}
	if drain.Count != 1 || drain.Devices[0].Slot != 1 {
		t.Fatalf("grace drain returned %+v", drain)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After shutdown the fleet manager is closed (the endurance test
	// pins the goroutine accounting).
	if _, err := s.Fleet().Drain(context.Background()); err == nil {
		t.Fatal("fleet still open after shutdown")
	}
}

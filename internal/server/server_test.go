package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/alloc"
	"dpm/internal/chaostest"
	"dpm/internal/dpm"
	"dpm/internal/pipeline"
	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// startServer boots a server on a loopback port and returns its base
// URL, shutting it down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, "http://" + s.Addr()
}

// postJSON sends body to path and returns status, headers and body.
func postJSON(t *testing.T, base, path string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func getBody(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeInto(data []byte, v any) error { return json.Unmarshal(data, v) }

// assertStructuredError checks the {"error": ..., "status": ...}
// body every non-2xx response must carry.
func assertStructuredError(t *testing.T, body []byte, wantStatus int) {
	t.Helper()
	var ae apiError
	if err := json.Unmarshal(body, &ae); err != nil {
		t.Fatalf("error body not structured JSON (%v): %s", err, body)
	}
	if ae.Error == "" || ae.Status != wantStatus {
		t.Fatalf("error body %+v, want status %d with a message", ae, wantStatus)
	}
}

// planBody is the canonical Scenario I plan request.
func planBody(t *testing.T) []byte {
	t.Helper()
	b, err := canonicalJSON(PlanRequest{Scenario: trace.ScenarioI()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// expectedPlanBody computes the /v1/plan response for Scenario I
// straight through internal/alloc — the reference bytes the service
// must match exactly.
func expectedPlanBody(t *testing.T) []byte {
	t.Helper()
	s := trace.ScenarioI()
	res, err := alloc.Compute(alloc.Inputs{
		Charging:      s.Charging,
		EventRate:     s.Usage,
		Weight:        s.Weight,
		CapacityMax:   s.CapacityMax,
		CapacityMin:   s.CapacityMin,
		InitialCharge: s.InitialCharge,
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := canonicalJSON(&PlanResponse{
		Scenario:   s.Name,
		Tau:        res.Allocation.Step,
		Allocation: res.Allocation.Values,
		Trajectory: res.Trajectory,
		Iterations: len(res.Iterations),
		Feasible:   res.Feasible,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEndToEndPlanConcurrencyAndCache is the acceptance flow: dpmd
// on a loopback port, concurrent /v1/plan requests for the PAMA
// scenario, every response byte-identical to the internal/dpm
// pipeline's output, the repeats visible as cache hits in /metrics.
func TestEndToEndPlanConcurrencyAndCache(t *testing.T) {
	_, base := startServer(t, Config{PoolSize: 8})
	want := expectedPlanBody(t)
	req := planBody(t)

	// Prime the cache with one sequential request so every
	// concurrent repeat below is deterministically a hit.
	status, hdr, body := postJSON(t, base, "/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("prime status %d: %s", status, body)
	}
	if got := hdr.Get(cacheHeader); got != "miss" {
		t.Fatalf("prime cache header %q, want miss", got)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("plan response differs from internal/dpm output:\ngot  %s\nwant %s", body, want)
	}

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/plan", "application/json", bytes.NewReader(req))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			if resp.Header.Get(cacheHeader) != "hit" {
				errs <- fmt.Errorf("cache header %q, want hit", resp.Header.Get(cacheHeader))
				return
			}
			if !bytes.Equal(data, want) {
				errs <- fmt.Errorf("concurrent response differs from reference")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	status, metricsText := getBody(t, base, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	text := string(metricsText)
	if got := sumSamples(text, `dpmd_cache_shard_hits_total{cache="plan",`); got != clients {
		t.Errorf("metrics show %g plan-cache hits, want %d:\n%s", got, clients, text)
	}
	if got := sumSamples(text, `dpmd_cache_shard_misses_total{cache="plan",`); got != 1 {
		t.Errorf("metrics show %g plan-cache misses, want the single miss:\n%s", got, text)
	}
	if !strings.Contains(text, fmt.Sprintf(`dpmd_http_request_duration_seconds_count{endpoint="/v1/plan"} %d`, clients+1)) {
		t.Errorf("metrics missing plan request count:\n%s", text)
	}
}

// TestGracefulShutdownDrains holds several plan requests in flight,
// starts a shutdown, then releases them: every request must complete
// with 200 and the shutdown must return cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	snap := chaostest.SnapshotGoroutines()
	const inflight = 4
	s, err := New(Config{Addr: "127.0.0.1:0", PoolSize: inflight})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, inflight)
	release := make(chan struct{})
	s.testDelay = func() {
		entered <- struct{}{}
		<-release
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	req := planBody(t)

	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			resp, err := http.Post(base+"/v1/plan", "application/json", bytes.NewReader(req))
			if err != nil {
				results <- err
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				results <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				results <- fmt.Errorf("in-flight request got status %d", resp.StatusCode)
				return
			}
			results <- nil
		}()
	}
	for i := 0; i < inflight; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("requests never reached the handler")
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give the shutdown a moment to close the listener, then let the
	// held requests finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	for i := 0; i < inflight; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("in-flight request dropped: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight request never completed")
		}
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never returned")
	}
	// The drained server must refuse new work.
	if _, err := http.Post(base+"/v1/plan", "application/json", bytes.NewReader(req)); err == nil {
		t.Error("request accepted after shutdown")
	}
	// Everything the server and its requests spawned must be gone.
	http.DefaultClient.CloseIdleConnections()
	chaostest.CheckGoroutines(t, snap)
}

// TestParamsEndpoint checks the (n, f) schedule against the params
// package and that repeats hit the cache.
func TestParamsEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	req, err := canonicalJSON(ParamsRequest{
		Allocation: schedule.NewGrid(4.8, []float64{2.1, 1.8, 0.6, 0.1, 0, 1.2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, body := postJSON(t, base, "/v1/params", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if hdr.Get(cacheHeader) != "miss" {
		t.Fatalf("first params request not a miss")
	}
	var resp ParamsResponse
	if err := decodeInto(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Steps) != 6 {
		t.Fatalf("got %d steps, want 6", len(resp.Steps))
	}
	if len(resp.Table) == 0 {
		t.Fatal("empty operating-point table")
	}
	// The 2.1 W slot must select a real point within budget; the 0 W
	// slot must idle.
	if resp.Steps[0].N < 1 || resp.Steps[0].PowerW > 2.1+1e-9 {
		t.Errorf("slot 0 chose n=%d %.3f W for a 2.1 W budget", resp.Steps[0].N, resp.Steps[0].PowerW)
	}
	if resp.Steps[4].N != 0 {
		t.Errorf("zero-budget slot chose n=%d", resp.Steps[4].N)
	}
	status, hdr, body2 := postJSON(t, base, "/v1/params", req)
	if status != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("repeat params request: status %d cache %q", status, hdr.Get(cacheHeader))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached params response differs from cold one")
	}
}

// TestReplanEndpoint drives the endpoint through a two-step
// state round-trip and checks it against a local manager.
func TestReplanEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	s := trace.ScenarioI()
	pcfg, pol, err := scenarioParams(s, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.ManagerConfig(s, pcfg, pol)
	mgr, err := dpm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr.EndSlot(9.5, 11.0)

	req, err := canonicalJSON(ReplanRequest{
		Scenario: s,
		Slots:    []SlotReport{{UsedJ: 9.5, SuppliedJ: 11.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := postJSON(t, base, "/v1/replan", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp ReplanResponse
	if err := decodeInto(body, &resp); err != nil {
		t.Fatal(err)
	}
	wantPlan := mgr.PlanSnapshot()
	if len(resp.Plan) != len(wantPlan) {
		t.Fatalf("plan length %d, want %d", len(resp.Plan), len(wantPlan))
	}
	for i := range wantPlan {
		if resp.Plan[i] != wantPlan[i] {
			t.Fatalf("plan[%d] = %g, want %g", i, resp.Plan[i], wantPlan[i])
		}
	}
	if resp.Slot != 1 || resp.ChargeJ != mgr.Charge() {
		t.Fatalf("slot %d charge %g, want 1 and %g", resp.Slot, resp.ChargeJ, mgr.Charge())
	}

	// Round-trip: feed the returned state back with the next slot.
	mgr.EndSlot(8.0, 10.0)
	req2, err := canonicalJSON(ReplanRequest{
		Scenario: s,
		State:    &resp.State,
		Slots:    []SlotReport{{UsedJ: 8.0, SuppliedJ: 10.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body = postJSON(t, base, "/v1/replan", req2)
	if status != http.StatusOK {
		t.Fatalf("second replan status %d: %s", status, body)
	}
	var resp2 ReplanResponse
	if err := decodeInto(body, &resp2); err != nil {
		t.Fatal(err)
	}
	wantPlan = mgr.PlanSnapshot()
	for i := range wantPlan {
		if resp2.Plan[i] != wantPlan[i] {
			t.Fatalf("round-trip plan[%d] = %g, want %g", i, resp2.Plan[i], wantPlan[i])
		}
	}
	if resp2.Slot != 2 {
		t.Fatalf("round-trip slot %d, want 2", resp2.Slot)
	}
}

// TestSimulateEndpoint compares the analytic mode against a direct
// dpm.Simulate run and smoke-tests the machine mode.
func TestSimulateEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	s := trace.ScenarioII()
	pcfg, pol, err := scenarioParams(s, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.ManagerConfig(s, pcfg, pol)
	want, err := dpm.Simulate(dpm.SimConfig{Manager: cfg, Periods: 2, SyncCharge: true})
	if err != nil {
		t.Fatal(err)
	}

	req, err := canonicalJSON(SimulateRequest{Scenario: s, Periods: 2, IncludeRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := postJSON(t, base, "/v1/simulate", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp SimulateResponse
	if err := decodeInto(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "analytic" {
		t.Fatalf("mode %q", resp.Mode)
	}
	if resp.WastedJ != want.Battery.Wasted || resp.UndersuppliedJ != want.Battery.Undersupplied {
		t.Fatalf("energies (%g, %g), want (%g, %g)",
			resp.WastedJ, resp.UndersuppliedJ, want.Battery.Wasted, want.Battery.Undersupplied)
	}
	if resp.Switches != want.Switches {
		t.Fatalf("switches %d, want %d", resp.Switches, want.Switches)
	}
	if len(resp.Records) != len(want.Records) {
		t.Fatalf("records %d, want %d", len(resp.Records), len(want.Records))
	}

	mreq, err := canonicalJSON(SimulateRequest{Scenario: s, Periods: 1, Machine: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body = postJSON(t, base, "/v1/simulate", mreq)
	if status != http.StatusOK {
		t.Fatalf("machine status %d: %s", status, body)
	}
	var mresp SimulateResponse
	if err := decodeInto(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Mode != "machine" || mresp.SuppliedJ <= 0 {
		t.Fatalf("machine response %+v", mresp)
	}
}

// TestErrorPaths exercises the structured-error surface.
func TestErrorPaths(t *testing.T) {
	_, base := startServer(t, Config{MaxBodyBytes: 2048})

	t.Run("method not allowed", func(t *testing.T) {
		status, body := getBody(t, base, "/v1/plan")
		if status != http.StatusMethodNotAllowed {
			t.Fatalf("status %d", status)
		}
		assertStructuredError(t, body, http.StatusMethodNotAllowed)
	})
	t.Run("malformed JSON", func(t *testing.T) {
		status, _, body := postJSON(t, base, "/v1/plan", []byte(`{"scenario":`))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d: %s", status, body)
		}
		assertStructuredError(t, body, http.StatusBadRequest)
	})
	t.Run("missing scenario", func(t *testing.T) {
		status, _, body := postJSON(t, base, "/v1/plan", []byte(`{}`))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		huge := []byte(`{"scenario":{"charging":{"step":4.8,"values":[` +
			strings.Repeat("1,", 4000) + `1]}}}`)
		status, _, body := postJSON(t, base, "/v1/plan", huge)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413: %s", status, body)
		}
		assertStructuredError(t, body, http.StatusRequestEntityTooLarge)
	})
	t.Run("machine work bound", func(t *testing.T) {
		// Every magnitude is individually in range, but the
		// rate × horizon product implies ~4e11 Poisson events.
		req, _ := canonicalJSON(SimulateRequest{
			Scenario: trace.Scenario{
				Charging:    schedule.NewGrid(1e5, []float64{1, 1, 1, 1}),
				Usage:       schedule.NewGrid(1e5, []float64{1e6, 1e6, 1e6, 1e6}),
				CapacityMax: 1e9,
			},
			Periods:    1,
			Machine:    true,
			EventScale: 1,
		})
		start := time.Now()
		status, _, body := postJSON(t, base, "/v1/simulate", req)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, body)
		}
		if !strings.Contains(string(body), "events over") {
			t.Fatalf("unexpected error body: %s", body)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("rejection took %s; the bound must fire before any simulation work", elapsed)
		}
	})
	t.Run("bad policy", func(t *testing.T) {
		req, _ := canonicalJSON(SimulateRequest{Scenario: trace.ScenarioI(), Periods: 1, Policy: "chaotic"})
		status, _, body := postJSON(t, base, "/v1/simulate", req)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("periods out of bounds", func(t *testing.T) {
		req, _ := canonicalJSON(SimulateRequest{Scenario: trace.ScenarioI(), Periods: 10000})
		status, _, body := postJSON(t, base, "/v1/simulate", req)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("negative replan energy", func(t *testing.T) {
		req, _ := canonicalJSON(ReplanRequest{
			Scenario: trace.ScenarioI(),
			Slots:    []SlotReport{{UsedJ: -1, SuppliedJ: 0}},
		})
		status, _, body := postJSON(t, base, "/v1/replan", req)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("unknown path", func(t *testing.T) {
		status, _ := getBody(t, base, "/v2/plan")
		if status != http.StatusNotFound {
			t.Fatalf("status %d", status)
		}
	})
}

// TestPlanCacheKeyCanonical checks that semantically identical plan
// requests share one cache entry: an omitted maxIterations vs the
// explicit default, and scenario names, must not fragment the LRU —
// while each response still echoes its own request's name.
func TestPlanCacheKeyCanonical(t *testing.T) {
	srv, base := startServer(t, Config{})
	s := trace.ScenarioI()

	prime, err := canonicalJSON(PlanRequest{Scenario: s}) // maxIterations omitted
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, primeBody := postJSON(t, base, "/v1/plan", prime)
	if status != http.StatusOK || hdr.Get(cacheHeader) != "miss" {
		t.Fatalf("prime: status %d cache %q", status, hdr.Get(cacheHeader))
	}

	// Explicit default maxIterations: same planning work, must hit.
	explicit, err := canonicalJSON(PlanRequest{Scenario: s, MaxIterations: 16, Strategy: "proportional"})
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, body := postJSON(t, base, "/v1/plan", explicit)
	if status != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("explicit defaults: status %d cache %q, want hit", status, hdr.Get(cacheHeader))
	}
	if !bytes.Equal(body, primeBody) {
		t.Fatalf("explicit-defaults body differs:\ngot  %s\nwant %s", body, primeBody)
	}

	// Same planning inputs under a different name: must hit, and the
	// response must echo the new name, not the cached one.
	renamed := s
	renamed.Name = "node-7-forecast"
	renamedReq, err := canonicalJSON(PlanRequest{Scenario: renamed})
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, body = postJSON(t, base, "/v1/plan", renamedReq)
	if status != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("renamed scenario: status %d cache %q, want hit", status, hdr.Get(cacheHeader))
	}
	var resp PlanResponse
	if err := decodeInto(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scenario != "node-7-forecast" {
		t.Fatalf("renamed response echoes %q, want node-7-forecast", resp.Scenario)
	}
	var primeResp PlanResponse
	if err := decodeInto(primeBody, &primeResp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Allocation) != len(primeResp.Allocation) {
		t.Fatalf("renamed allocation length %d, want %d", len(resp.Allocation), len(primeResp.Allocation))
	}
	for i := range resp.Allocation {
		if resp.Allocation[i] != primeResp.Allocation[i] {
			t.Fatalf("renamed allocation[%d] = %g, want %g", i, resp.Allocation[i], primeResp.Allocation[i])
		}
	}

	if stats := srv.CacheStats(); stats.Len != 1 || stats.Misses != 1 {
		t.Fatalf("cache has %d entries after %d misses, want 1 entry from 1 miss", stats.Len, stats.Misses)
	}
}

// TestDeadlineExpiredNot200 holds the pool slot past the request
// deadline and checks the response is a 503, not a late 200 written
// after the SLO expired.
func TestDeadlineExpiredNot200(t *testing.T) {
	s, err := New(Config{
		Addr:           "127.0.0.1:0",
		PoolSize:       1,
		RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.testDelay = func() { time.Sleep(250 * time.Millisecond) }
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	base := "http://" + s.Addr()

	status, _, body := postJSON(t, base, "/v1/plan", planBody(t))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("expired request got status %d: %s", status, body)
	}
	assertStructuredError(t, body, http.StatusServiceUnavailable)
}

// TestPoolSaturation holds the single pool slot and checks that the
// next request is rejected 503 once its timeout expires.
func TestPoolSaturation(t *testing.T) {
	s, err := New(Config{
		Addr:           "127.0.0.1:0",
		PoolSize:       1,
		RequestTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testDelay = func() {
		entered <- struct{}{}
		<-release
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	base := "http://" + s.Addr()
	req := planBody(t)

	go http.Post(base+"/v1/plan", "application/json", bytes.NewReader(req)) //nolint:errcheck
	<-entered

	status, hdr, body := postJSON(t, base, "/v1/plan", req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool returned %d: %s", status, body)
	}
	assertStructuredError(t, body, http.StatusServiceUnavailable)
	// Every overload 503 must tell the client when to come back.
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Error("saturation 503 missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want whole seconds >= 1", ra)
	}
}

func TestHealthz(t *testing.T) {
	_, base := startServer(t, Config{})
	status, body := getBody(t, base, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("body %s", body)
	}
}

// TestConfigValidation rejects broken configurations.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{PoolSize: -1}); err == nil {
		t.Error("negative pool accepted")
	}
	if _, err := New(Config{MaxBodyBytes: 10}); err == nil {
		t.Error("tiny body limit accepted")
	}
	if _, err := New(Config{RequestTimeout: -time.Second}); err == nil {
		t.Error("negative timeout accepted")
	}
}

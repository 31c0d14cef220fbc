package chaostest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/chaostest"
	"dpm/internal/resilience"
	"dpm/internal/server"
	"dpm/internal/server/client"
	"dpm/internal/trace"
)

// TestChaosSoak is the overload drill: a live dpmd instance behind
// fault-injecting server middleware, driven by retrying clients whose
// transports inject their own faults, with concurrent plan, batch,
// replan and fleet-session traffic. The stateless endpoints are
// idempotent; fleet ticks carry Seq so retried ticks are answered
// from session memory rather than double-applied. With unlimited
// (context-bounded) attempts each logical request must eventually
// succeed; /v1/plan answers must stay byte-identical to a golden body
// captured before the storm; a post-storm fleet drain must return
// each surviving session exactly once; and after a graceful drain
// nothing may leak. Both injectors are seeded, so a failure replays
// exactly.
func TestChaosSoak(t *testing.T) {
	snap := chaostest.SnapshotGoroutines()

	workers, iters := 8, 40
	if testing.Short() {
		workers, iters = 4, 10
	}

	var mw *chaostest.MiddlewareHandler
	srv, err := server.New(server.Config{
		Addr:           "127.0.0.1:0",
		PoolSize:       4,
		RequestTimeout: 10 * time.Second,
		Wrap: func(next http.Handler) http.Handler {
			mw = chaostest.Middleware(next, chaostest.FaultConfig{
				Seed:        101,
				LatencyProb: 0.10,
				LatencyMin:  time.Millisecond,
				LatencyMax:  5 * time.Millisecond,
				Err503Prob:  0.08,
				ResetProb:   0.05,
			})
			return mw
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Golden /v1/plan bytes over a clean connection, before any chaos
	// traffic touches the cache.
	golden := rawPlan(t, mw, base)

	policy := resilience.RetryPolicy{
		MaxAttempts:      resilience.UnlimitedAttempts,
		BaseDelay:        2 * time.Millisecond,
		MaxDelay:         50 * time.Millisecond,
		BreakerThreshold: 20,
		BreakerCooldown:  20 * time.Millisecond,
		Seed:             7,
	}
	chaosHTTP := &http.Client{
		Timeout: 30 * time.Second,
		Transport: chaostest.NewTransport(nil, chaostest.FaultConfig{
			Seed:         202,
			LatencyProb:  0.10,
			LatencyMin:   time.Millisecond,
			LatencyMax:   5 * time.Millisecond,
			ResetProb:    0.08,
			TruncateProb: 0.08,
			Err500Prob:   0.04,
			Err503Prob:   0.04,
		}),
	}
	c := client.NewWithRetry(base, chaosHTTP, policy)

	scenarios := trace.Scenarios()
	errs := make(chan error, workers*iters)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				var err error
				switch (w + i) % 4 {
				case 0:
					err = soakPlan(ctx, c, scenarios[i%len(scenarios)])
				case 1:
					err = soakBatch(ctx, c, scenarios)
				case 2:
					err = soakReplan(ctx, c, scenarios[0])
				default:
					err = soakFleet(ctx, c, fmt.Sprintf("soak-fleet-%d", w), uint64(i)+1, scenarios[0])
				}
				cancel()
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		if failed <= 5 {
			t.Error(err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d idempotent requests never succeeded", failed, workers*iters)
	}

	// Drain the fleet through the chaos client: each surviving session
	// comes back exactly once, all from the soak's device namespace.
	// (A drain retried after a truncated response legitimately finds
	// the fleet already empty, so the count itself is not asserted.)
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 20*time.Second)
	drained, err := c.FleetDrain(drainCtx)
	drainCancel()
	if err != nil {
		t.Fatalf("fleet drain after soak: %v", err)
	}
	seen := make(map[string]bool)
	for _, d := range drained.Devices {
		if !strings.HasPrefix(d.DeviceID, "soak-fleet-") {
			t.Errorf("drained unexpected device %q", d.DeviceID)
		}
		if seen[d.DeviceID] {
			t.Errorf("device %q drained twice", d.DeviceID)
		}
		seen[d.DeviceID] = true
	}

	// The storm must not have perturbed the canonical plan bytes.
	if got := rawPlan(t, mw, base); !bytes.Equal(got, golden) {
		t.Errorf("/v1/plan diverged from golden after soak:\n got: %s\nwant: %s", got, golden)
	}

	// Server-side admission families are on /metrics; the client's
	// breaker families render from its group.
	metricsBody := rawGet(t, mw, base+"/metrics")
	for _, want := range []string{
		"dpmd_admission_admitted_total",
		"dpmd_admission_shed_total",
		"dpmd_admission_expired_total",
		"dpmd_admission_queue_depth",
		"dpmd_fleet_ticks_total",
		"dpmd_fleet_drained_sessions_total",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var prom bytes.Buffer
	if err := c.Breakers().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "dpmd_client_breaker_state{host=") {
		t.Errorf("breaker exposition missing state family:\n%s", prom.String())
	}

	// Drain and prove nothing outlived it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	chaosHTTP.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	chaostest.CheckGoroutines(t, snap)
}

// soakPlan plans one scenario and sanity-checks the result shape.
func soakPlan(ctx context.Context, c *client.Client, s trace.Scenario) error {
	resp, _, err := c.Plan(ctx, server.PlanRequest{Scenario: s})
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if len(resp.Allocation) == 0 || len(resp.Trajectory) != len(resp.Allocation)+1 {
		return fmt.Errorf("plan: malformed response %+v", resp)
	}
	return nil
}

// soakBatch plans every scenario in one call and checks per-item
// success.
func soakBatch(ctx context.Context, c *client.Client, scenarios []trace.Scenario) error {
	reqs := make([]server.PlanRequest, len(scenarios))
	for i, s := range scenarios {
		reqs[i] = server.PlanRequest{Scenario: s}
	}
	results, err := c.PlanBatch(ctx, reqs)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("batch item %d: %w", i, r.Err)
		}
		if r.Plan == nil || len(r.Plan.Allocation) == 0 {
			return fmt.Errorf("batch item %d: empty plan", i)
		}
	}
	return nil
}

// soakReplan round-trips a checkpoint through two replan calls — the
// Algorithm 3 loop a fleet node runs every slot.
func soakReplan(ctx context.Context, c *client.Client, s trace.Scenario) error {
	first, err := c.Replan(ctx, server.ReplanRequest{
		Scenario: s,
		Slots:    []server.SlotReport{{UsedJ: 9.5, SuppliedJ: 11.0}},
	})
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	second, err := c.Replan(ctx, server.ReplanRequest{
		Scenario: s,
		State:    &first.State,
		Slots:    []server.SlotReport{{UsedJ: 8.0, SuppliedJ: 10.0}},
	})
	if err != nil {
		return fmt.Errorf("replan resume: %w", err)
	}
	if second.Slot != first.Slot+1 {
		return fmt.Errorf("replan: slot %d after %d, want +1", second.Slot, first.Slot)
	}
	return nil
}

// soakFleet drives one worker's session: tick with a distinct seq; on
// 404 (never registered, or drained by a concurrent soak iteration)
// or 410 (idle-evicted) register — resuming any parked checkpoint —
// and tick again. Seq makes the tick safe under the retrying client:
// a retry whose original was applied is answered from session memory.
func soakFleet(ctx context.Context, c *client.Client, device string, seq uint64, s trace.Scenario) error {
	tick := server.FleetTickRequest{
		DeviceID: device,
		Seq:      seq,
		Slots:    []server.SlotReport{{UsedJ: 9.0, SuppliedJ: 10.5}},
	}
	if _, err := c.FleetTick(ctx, tick); err == nil {
		return nil
	} else {
		var se *client.StatusError
		if !errors.As(err, &se) || (se.Code != http.StatusNotFound && se.Code != http.StatusGone) {
			return fmt.Errorf("fleet tick: %w", err)
		}
	}
	if _, err := c.FleetRegister(ctx, server.FleetRegisterRequest{DeviceID: device, Scenario: s}); err != nil {
		return fmt.Errorf("fleet register: %w", err)
	}
	if _, err := c.FleetTick(ctx, tick); err != nil {
		return fmt.Errorf("fleet tick after register: %w", err)
	}
	return nil
}

// rawAttempts bounds the retries of one clean request. Each attempt
// meets an injected server fault with probability 0.13, so ten in a
// row (~1e-9) means the middleware is not the cause.
const rawAttempts = 10

// rawDo sends one request over a clean client, retrying only the
// faults the server middleware itself injected: a 503 it wrote, or a
// connection it aborted. The middleware's counters tell an injected
// fault from a genuine one, since nothing else is in flight. Any
// other non-200 or transport error fails the test at once.
func rawDo(t *testing.T, mw *chaostest.MiddlewareHandler, send func() (*http.Response, error)) []byte {
	t.Helper()
	for attempt := 1; ; attempt++ {
		before := mw.Stats()
		resp, err := send()
		var (
			status int
			data   []byte
		)
		if err == nil {
			status = resp.StatusCode
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		after := mw.Stats()
		injected := (err != nil && after.Resets > before.Resets) ||
			(err == nil && status == http.StatusServiceUnavailable && after.Err503s > before.Err503s)
		switch {
		case injected && attempt < rawAttempts:
			continue
		case err != nil:
			t.Fatalf("clean request (attempt %d): %v", attempt, err)
		case status != http.StatusOK:
			t.Fatalf("clean request status %d (attempt %d): %s", status, attempt, data)
		}
		return data
	}
}

// rawPlan fetches /v1/plan over a clean client and returns the exact
// body bytes.
func rawPlan(t *testing.T, mw *chaostest.MiddlewareHandler, base string) []byte {
	t.Helper()
	body := []byte(`{"scenario":` + scenarioIJSON(t) + `}`)
	return rawDo(t, mw, func() (*http.Response, error) {
		return http.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
	})
}

// scenarioIJSON renders Scenario I in its wire form.
func scenarioIJSON(t *testing.T) string {
	t.Helper()
	data, err := json.Marshal(trace.ScenarioI())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// rawGet fetches a URL over a clean client.
func rawGet(t *testing.T, mw *chaostest.MiddlewareHandler, url string) string {
	t.Helper()
	return string(rawDo(t, mw, func() (*http.Response, error) { return http.Get(url) }))
}

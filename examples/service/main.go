// Service walkthrough: run dpmd in-process and drive it with the
// typed client the way a fleet node would — plan (including a
// non-default planner strategy via the planner field / ?strategy=),
// parameterize, report a slot, simulate, and read the metrics.
//
//	go run ./examples/service
//
// The same requests work over the wire against a standalone daemon
// (`make serve`, or `go run ./cmd/dpmd`); plan_request.json and
// batch_request.json in this directory are the /v1/plan and
// /v1/batch bodies used below, ready for curl.
//
// The daemon's hot-path tuning knobs (all optional — the defaults
// fit a small deployment):
//
//	-cache 256        plan-cache capacity, entries (LRU per shard)
//	-cache-shards 0   lock shards for the plan cache; 0 picks
//	                  min(pow2(GOMAXPROCS), 16), 1 = single lock
//	-table-cache 128  memoized Algorithm 2 tables kept resident,
//	                  one per distinct hardware config
//	-pool 8           concurrent planning workers
//
// In-process embedders set the same things via server.Config
// (CacheEntries, CacheShards, PoolSize) and
// params.ResizeSharedTableCache, as below.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"dpm/internal/chaostest"
	"dpm/internal/obs"
	"dpm/internal/resilience"
	"dpm/internal/schedule"
	"dpm/internal/server"
	"dpm/internal/server/client"
	"dpm/internal/trace"
)

func main() {
	// 1. Start the service on a loopback port, as cmd/dpmd would.
	// CacheShards: 0 lets the server pick its GOMAXPROCS-scaled
	// default; set 1 to force a single-lock cache.
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", PoolSize: 4, CacheEntries: 64, CacheShards: 0})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			log.Fatal(err)
		}
	}()

	c := client.New("http://"+srv.Addr(), nil)
	if err := c.Healthz(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dpmd up at %s\n\n", srv.Addr())

	// 2. Ask for the Algorithm 1 power allocation of the paper's
	// Scenario I — the charging forecast a satellite would upload.
	planReq := server.PlanRequest{Scenario: trace.ScenarioI()}
	plan, state, err := c.Plan(ctx, planReq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan (%s): feasible=%v iterations=%d\n", state, plan.Feasible, plan.Iterations)
	for i, p := range plan.Allocation {
		fmt.Printf("  slot %2d  %.3f W\n", i, p)
	}

	// A second identical request is served from the scenario cache.
	if _, state, err = c.Plan(ctx, planReq); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same forecast again: cache %s\n\n", state)

	// The planner is pluggable: the same forecast through the YDS
	// taut-string backend (?strategy=yds on the wire) gets its own
	// cache entry and names its planner; an unknown name is a typed
	// 400 listing the registered backends.
	ydsPlan, state, err := c.Plan(ctx, server.PlanRequest{Scenario: trace.ScenarioI(), Planner: "yds"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("yds plan (%s): planner=%s feasible=%v\n", state, ydsPlan.Planner, ydsPlan.Feasible)
	if _, _, err := c.Plan(ctx, server.PlanRequest{Scenario: trace.ScenarioI(), Planner: "vaporware"}); err != nil {
		var se *client.StatusError
		if errors.As(err, &se) {
			fmt.Printf("unknown strategy → %d: %s\n\n", se.Code, se.Message)
		}
	}

	// A whole constellation of forecasts goes through /v1/batch in
	// one round trip; each item reports its own cache disposition.
	batch, err := c.PlanBatch(ctx, []server.PlanRequest{
		{Scenario: trace.ScenarioI()},
		{Scenario: trace.ScenarioII()},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, item := range batch {
		if item.Err != nil {
			log.Fatal(item.Err)
		}
		fmt.Printf("batch item %d (%s): feasible=%v\n", i, item.Cache, item.Plan.Feasible)
	}
	fmt.Println()

	// 3. Turn the plan into the Algorithm 2 (n, f) schedule for the
	// PAMA board (the default hardware block).
	ps, _, err := c.Params(ctx, server.ParamsRequest{
		Allocation: schedule.NewGrid(plan.Tau, plan.Allocation),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("operating points per slot:")
	for _, st := range ps.Steps {
		fmt.Printf("  slot %2d  n=%d f=%2.0f MHz  (%.3f W)\n",
			st.Slot, st.N, st.FrequencyHz/1e6, st.PowerW)
	}
	fmt.Println()

	// 4. Close a slot: the node measured its real consumption and
	// charge, and Algorithm 3 redistributes the deviation.
	rep, err := c.Replan(ctx, server.ReplanRequest{
		Scenario: trace.ScenarioI(),
		Slots:    []server.SlotReport{{UsedJ: 9.0, SuppliedJ: 10.5}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after slot 0 (used 9.0 J, got 10.5 J): charge %.2f J, next slot %d\n",
		rep.ChargeJ, rep.Slot)
	fmt.Printf("updated plan: %.3f W in slot 1 (was %.3f W)\n\n",
		rep.Plan[1], plan.Allocation[1])

	// 5. Debug a request: X-Dpmd-Trace: 1 attaches the span tree —
	// per-stage durations and Algorithm 1's per-iteration telemetry —
	// while the embedded plan stays byte-identical to what an untraced
	// request gets. A fresh margin forces a cache miss so the whole
	// pipeline shows up; tracing a warm scenario shows just the
	// plan.cache hit.
	traced, state, err := c.PlanTraced(ctx, server.PlanRequest{
		Scenario: trace.ScenarioII(),
		Margin:   0.02,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced request %s (cache %s):\n", traced.Trace.RequestID, state)
	printSpans(traced.Trace.Spans, 1)
	fmt.Println()

	// 6. Dry-run two periods closed-loop before committing.
	sim, err := c.Simulate(ctx, server.SimulateRequest{
		Scenario: trace.ScenarioI(),
		Periods:  2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated 2 periods: wasted %.3f J, undersupplied %.3f J, utilization %.1f%%\n\n",
		sim.WastedJ, sim.UndersuppliedJ, 100*sim.Utilization)

	// 7. The metrics endpoint shows the cache doing its job — the
	// per-shard cache counters and entry gauges — next to the
	// Prometheus families a scraper would ingest.
	text, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "dpmd_cache_") ||
			strings.HasPrefix(line, "# TYPE dpmd_") ||
			strings.HasPrefix(line, "dpmd_uptime_seconds") {
			fmt.Println(line)
		}
	}
	fmt.Println()

	// 8. Ride out a flaky network: the same plan request through a
	// transport that resets connections, truncates bodies and injects
	// spurious 5xx. client.NewWithRetry absorbs all of it — exponential
	// backoff with full jitter, Retry-After honored, a per-host circuit
	// breaker guarding against a dead host — and every dpmd endpoint is
	// idempotent, so retrying is always safe.
	flakyHTTP := &http.Client{
		Timeout: 30 * time.Second,
		Transport: chaostest.NewTransport(nil, chaostest.FaultConfig{
			Seed:         42,
			ResetProb:    0.3,
			TruncateProb: 0.2,
			Err503Prob:   0.2,
		}),
	}
	rc := client.NewWithRetry("http://"+srv.Addr(), flakyHTTP, resilience.RetryPolicy{
		MaxAttempts: resilience.UnlimitedAttempts, // context-bounded
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Seed:        1,
	})
	for i := 0; i < 10; i++ {
		if _, _, err := rc.Plan(ctx, planReq); err != nil {
			log.Fatal(err)
		}
	}
	st := flakyHTTP.Transport.(*chaostest.Transport).Stats()
	fmt.Printf("10 plans through a flaky wire: %d round trips (%d resets, %d truncations, %d injected 503s), all succeeded\n\n",
		st.Requests, st.Resets, st.Truncations, st.Err503s)

	// 9. The fleet layer: the same Algorithm 3 loop as step 4, but the
	// checkpoint stays server-side. A device registers once (the body
	// in fleet_register.json works over curl too), then streams bare
	// slot reports — no checkpoint on the wire — and the drain hands
	// every session's final checkpoint back exactly once, ready to
	// re-register here or anywhere else. Seq on each tick makes
	// retries safe: a duplicate is answered from session memory.
	reg, err := c.FleetRegister(ctx, server.FleetRegisterRequest{
		DeviceID: "sat-007",
		Scenario: trace.ScenarioI(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: registered %s at slot %d\n", reg.DeviceID, reg.Slot)
	for i, r := range []server.SlotReport{
		{UsedJ: 9.0, SuppliedJ: 10.5},
		{UsedJ: 8.2, SuppliedJ: 10.1},
		{UsedJ: 11.4, SuppliedJ: 9.6},
	} {
		tk, err := c.FleetTick(ctx, server.FleetTickRequest{
			DeviceID: "sat-007",
			Seq:      uint64(i) + 1,
			Slots:    []server.SlotReport{r},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fleet: tick %d → slot %d, charge %.2f J, %d replan(s)\n",
			i+1, tk.Slot, tk.ChargeJ, tk.Replans)
	}
	drainedFleet, err := c.FleetDrain(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: drained %d session(s); %s stopped at slot %d with its checkpoint in hand\n",
		drainedFleet.Count, drainedFleet.Devices[0].DeviceID, drainedFleet.Devices[0].Slot)
}

// printSpans renders a span forest indented by depth, with the
// annotations the pipeline attached (cache disposition, iteration and
// violation counts, memo hits).
func printSpans(spans []obs.SpanNode, depth int) {
	for _, s := range spans {
		fmt.Printf("%s%-18s %6d µs", strings.Repeat("  ", depth), s.Name, s.DurUS)
		if len(s.Attrs) > 0 {
			fmt.Printf("  %v", s.Attrs)
		}
		fmt.Println()
		printSpans(s.Spans, depth+1)
	}
}

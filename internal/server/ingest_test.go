package server_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"dpm/internal/obs"
	"dpm/internal/server"
	"dpm/internal/server/client"
	"dpm/internal/trace"
)

// The end-to-end telemetry loop, driven exactly as a deployment would
// be: a device registers with a stale usage forecast, then streams its
// real behavior — paper scenario I — as StatsD datagrams over UDP. The
// server is never given the oracle schedule; it must recover it from
// the traffic. Within two periods the live forecast converges to the
// oracle within the divergence threshold, at least one
// divergence-triggered replan fires (visible on
// dpmd_ingest_replans_total), and the flush span tree shows the
// flush → forecast → replan pipeline.
func TestIngestEndToEndConvergence(t *testing.T) {
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		IngestAddr: "127.0.0.1:0",
		// Manual flushes only: the test closes windows deterministically
		// via POST /v1/ingest/flush.
		IngestFlush:         0,
		IngestPredictor:     "last-period",
		DivergenceThreshold: 0.25,
		// One counted event == one joule per τ, so the generator sends
		// the oracle wattage as the counter value directly.
		IngestEventEnergyJ: trace.Tau,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New("http://"+srv.Addr(), nil)

	// Register with the oracle's battery band and charging forecast but
	// a stale usage forecast at half the real demand: every oracle slot
	// diverges from the plan by 100% relative error.
	oracle := trace.ScenarioI()
	stale := oracle
	stale.Usage = oracle.Usage.Scale(0.5)
	const dev = "sat-007"
	if _, err := c.FleetRegister(ctx, server.FleetRegisterRequest{
		DeviceID: dev,
		Scenario: stale,
	}); err != nil {
		t.Fatal(err)
	}

	stats, err := c.IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Enabled || stats.Addr == "" {
		t.Fatalf("ingestion not live: %+v", stats)
	}
	conn, err := net.Dial("udp", stats.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	slots := oracle.Usage.Len()
	var sent uint64
	playSlot := func(slot int) {
		datagram := fmt.Sprintf("%s.events:%g|c\n%s.charge:%g|g",
			dev, oracle.Usage.Values[slot], dev, oracle.Charging.Values[slot])
		if _, err := conn.Write([]byte(datagram)); err != nil {
			t.Fatal(err)
		}
		sent += 2
		// UDP delivery is asynchronous; wait for the samples to land
		// before closing the window so every flush is deterministic.
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := c.IngestStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Stats.SamplesApplied >= sent {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("slot %d: %d of %d samples applied", slot, st.Stats.SamplesApplied, sent)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if _, err := c.IngestFlush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Period 1: every slot breaches, the hysteresis arms on the third
	// consecutive breach, and the period wrap fires the replan from the
	// first completed forecast.
	for s := 0; s < slots; s++ {
		playSlot(s)
	}
	stats, err = c.IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats.Replans < 1 {
		t.Fatalf("no divergence-triggered replan after a fully divergent period: %+v", stats.Stats)
	}
	if stats.Stats.TickErrors != 0 {
		t.Errorf("tick errors = %d", stats.Stats.TickErrors)
	}
	assertSpanPath(t, stats.LastFlushSpans, "ingest.flush", "ingest.forecast", "ingest.replan", "fleet.register")

	// Period 2: the device keeps its oracle behavior; the replanned
	// expectation now matches, so the loop settles with no extra
	// replans.
	for s := 0; s < slots; s++ {
		playSlot(s)
	}
	stats, err = c.IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats.Replans != 1 {
		t.Errorf("replans after convergence = %d, want exactly 1", stats.Stats.Replans)
	}
	if len(stats.Devices) != 1 || stats.Devices[0].DeviceID != dev {
		t.Fatalf("devices = %+v", stats.Devices)
	}
	ds := stats.Devices[0]
	if len(ds.ForecastUsage) != slots {
		t.Fatalf("forecast length %d, want %d", len(ds.ForecastUsage), slots)
	}
	// Convergence: the live forecast — learned purely from traffic —
	// sits within the divergence threshold of the oracle on every slot.
	for i, want := range oracle.Usage.Values {
		rel := math.Abs(ds.ForecastUsage[i]-want) / math.Max(want, 0.1)
		if rel > 0.25 {
			t.Errorf("slot %d: forecast usage %g vs oracle %g (rel %g)", i, ds.ForecastUsage[i], want, rel)
		}
	}
	for i, want := range oracle.Charging.Values {
		rel := math.Abs(ds.ForecastCharging[i]-want) / math.Max(want, 0.1)
		if rel > 0.25 {
			t.Errorf("slot %d: forecast charging %g vs oracle %g (rel %g)", i, ds.ForecastCharging[i], want, rel)
		}
	}

	// The replan is on the scrape surface, and the device's fleet
	// session kept ticking throughout.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dpmd_ingest_replans_total 1",
		fmt.Sprintf("dpmd_ingest_lines_total %d", sent),
		"dpmd_fleet_ticks_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// The flush span tree is bounded: a flush ticks the whole fleet in one
// batch, which reaches the stage histogram once
// (dpmd_pipeline_stage_duration_seconds{stage="fleet.tick"} grows by
// one per flush, whatever the device count) and adds no node to the
// flush tree, so on a window with no period wrap the tree a 64-device
// fleet records is exactly the one a 4-device fleet records.
func TestIngestFlushTraceBounded(t *testing.T) {
	nodes := map[int]int{}
	for _, n := range []int{4, 64} {
		nodes[n] = flushTraceNodes(t, n)
	}
	if nodes[4] != nodes[64] {
		t.Errorf("flush span tree grew with the fleet: %d nodes at N=4, %d at N=64", nodes[4], nodes[64])
	}
}

// flushTraceNodes registers n ingest devices on a fresh server, runs
// one flush (slot 0 of 12, so no period wraps), checks the fleet.tick
// stage count grew by one, and returns the flush tree's node count.
func flushTraceNodes(t *testing.T, n int) int {
	t.Helper()
	srv, err := server.New(server.Config{
		Addr:        "127.0.0.1:0",
		IngestAddr:  "127.0.0.1:0",
		IngestFlush: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://"+srv.Addr(), nil)
	for i := 0; i < n; i++ {
		if _, err := c.FleetRegister(ctx, server.FleetRegisterRequest{
			DeviceID: fmt.Sprintf("bounded-%02d", i),
			Scenario: trace.ScenarioI(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ticks := func() int {
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		const series = `dpmd_pipeline_stage_duration_seconds_count{stage="fleet.tick"} `
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, series); ok {
				var k int
				if _, err := fmt.Sscanf(v, "%d", &k); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				return k
			}
		}
		return 0
	}
	before := ticks()
	res, err := c.IngestFlush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Devices != n || res.Replans != 0 {
		t.Fatalf("N=%d: flush = %+v", n, *res)
	}
	if got := ticks() - before; got != 1 {
		t.Errorf("N=%d: fleet.tick stage count grew by %d over one flush, want 1", n, got)
	}
	stats, err := c.IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats.TickErrors != 0 {
		t.Errorf("N=%d: tick errors = %d", n, stats.Stats.TickErrors)
	}
	assertSpanPath(t, stats.LastFlushSpans, "ingest.flush")
	return countSpans(stats.LastFlushSpans)
}

// countSpans counts the nodes of a span forest.
func countSpans(spans []obs.SpanNode) int {
	n := len(spans)
	for _, s := range spans {
		n += countSpans(s.Spans)
	}
	return n
}

// assertSpanPath walks the span forest asserting the named chain
// exists root-to-leaf.
func assertSpanPath(t *testing.T, spans []obs.SpanNode, path ...string) {
	t.Helper()
	nodes := spans
	for depth, name := range path {
		var next []obs.SpanNode
		found := false
		for _, n := range nodes {
			if n.Name == name {
				found = true
				next = n.Spans
				break
			}
		}
		if !found {
			t.Fatalf("span %q missing at depth %d of path %v in %+v", name, depth, path, spans)
		}
		nodes = next
	}
}

// Ingestion endpoints answer 404 when the daemon is disabled, so a
// fleet-only deployment keeps a clean surface.
func TestIngestDisabled(t *testing.T) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	c := client.New("http://"+srv.Addr(), nil)
	ctx := context.Background()
	if _, err := c.IngestStats(ctx); err == nil {
		t.Error("stats on a fleet-only server must 404")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != 404 {
		t.Errorf("stats error = %v, want 404", err)
	}
	if _, err := c.IngestFlush(ctx); err == nil {
		t.Error("flush on a fleet-only server must 404")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != 404 {
		t.Errorf("flush error = %v, want 404", err)
	}
}

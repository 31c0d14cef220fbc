package server_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"dpm/internal/schedule"
	"dpm/internal/server"
	"dpm/internal/server/client"
	"dpm/internal/trace"
)

// The fleet ↔ ingest seam: what a divergence-triggered replan carries
// from the registration and the live session into the new one. Each
// test drives the ingestion daemon directly (Inject + flush), so every
// window is deterministic, and checks the replanned session against a
// reference session built by hand on a server without ingestion.

// seamServer starts a dpmd with manual-flush ingestion in which one
// counted event is one joule per τ. ttl > 0 enables idle eviction.
func seamServer(t *testing.T, ttl time.Duration) (*server.Server, *client.Client) {
	t.Helper()
	return startSeam(t, server.Config{
		Addr:                "127.0.0.1:0",
		IngestAddr:          "127.0.0.1:0",
		IngestPredictor:     "last-period",
		DivergenceThreshold: 0.25,
		IngestEventEnergyJ:  trace.Tau,
		FleetIdleTTL:        ttl,
	})
}

// referenceServer starts a dpmd without ingestion, where sessions are
// registered and ticked only by the test.
func referenceServer(t *testing.T) *client.Client {
	t.Helper()
	_, c := startSeam(t, server.Config{Addr: "127.0.0.1:0"})
	return c
}

func startSeam(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return srv, client.New("http://"+srv.Addr(), nil)
}

// seamRegistration is a registration that differs from every default
// the replan could fall back to: a stale usage forecast (half of
// scenario I's, so every oracle slot breaches), a non-uniform weight,
// a narrowed battery band, a non-PAMA board, the "even" policy and
// the given planner.
func seamRegistration(id, planner string) server.FleetRegisterRequest {
	sc := trace.ScenarioI()
	sc.Usage = sc.Usage.Scale(0.5)
	sc.Weight = schedule.NewGrid(trace.Tau, []float64{1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2})
	sc.CapacityMin = 0.2 * trace.Tau
	sc.CapacityMax = 3 * trace.Tau
	sc.InitialCharge = 1.5 * trace.Tau
	return server.FleetRegisterRequest{
		DeviceID: id,
		Scenario: sc,
		Hardware: &server.Hardware{MaxProcessors: 5, FrequenciesHz: []float64{20e6, 80e6}},
		Policy:   "even",
		Planner:  planner,
	}
}

// playOracleSlot streams scenario I's slot as one datagram and closes
// the window.
func playOracleSlot(ctx context.Context, t *testing.T, srv *server.Server, c *client.Client, dev string, slot int) {
	t.Helper()
	oracle := trace.ScenarioI()
	d := srv.Ingest()
	want := d.Stats().SamplesApplied + 2
	d.Inject([]byte(fmt.Sprintf("%s.events:%g|c\n%s.charge:%g|g",
		dev, oracle.Usage.Values[slot], dev, oracle.Charging.Values[slot])))
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().SamplesApplied < want {
		if time.Now().After(deadline) {
			t.Fatalf("slot %d: samples never applied", slot)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.IngestFlush(ctx); err != nil {
		t.Fatal(err)
	}
}

// observedReports turns the device's last-period forecast — exactly
// the period the daemon observed — back into the slot reports its
// flushes ticked into the session.
func observedReports(ctx context.Context, t *testing.T, c *client.Client, dev string) (usage, charging []float64, reports []server.SlotReport) {
	t.Helper()
	stats, err := c.IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range stats.Devices {
		if ds.DeviceID != dev {
			continue
		}
		for i := range ds.ForecastUsage {
			reports = append(reports, server.SlotReport{
				UsedJ:     ds.ForecastUsage[i] * trace.Tau,
				SuppliedJ: ds.ForecastCharging[i] * trace.Tau,
			})
		}
		return ds.ForecastUsage, ds.ForecastCharging, reports
	}
	t.Fatalf("device %s not tracked: %+v", dev, stats.Devices)
	return nil, nil, nil
}

// drainedState drains the server and returns dev's final checkpoint.
func drainedState(ctx context.Context, t *testing.T, c *client.Client, dev string) server.FleetDrainedDevice {
	t.Helper()
	res, err := c.FleetDrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Devices {
		if d.DeviceID == dev {
			return d
		}
	}
	t.Fatalf("device %s not drained: %+v", dev, res.Devices)
	return server.FleetDrainedDevice{}
}

// A forced divergence replan rebuilds the session from the forecasts
// with the live session's charge (clamped to the band) and everything
// else the registration said: hardware, policy, planner, battery band
// and weight. The reference session is registered with exactly that
// and must answer every later tick identically, checkpoint included.
// The planner decides what shows: yds ignores the weight, which the
// paper's Algorithm 1 plans with. (A fleet tick never consults the
// Algorithm 2 table, so the hardware cannot show here; fleet's
// TestReplan pins it on the retained spec.)
func TestIngestReplanKeepsRegistration(t *testing.T) {
	for _, planner := range []string{"yds", "paper"} {
		t.Run("planner="+planner, func(t *testing.T) { testReplanKeepsRegistration(t, planner) })
	}
}

func testReplanKeepsRegistration(t *testing.T, planner string) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv, c := seamServer(t, 0)
	ref := referenceServer(t)
	const dev = "sat-seam"
	reg := seamRegistration(dev, planner)
	if _, err := c.FleetRegister(ctx, reg); err != nil {
		t.Fatal(err)
	}
	slots := reg.Scenario.Usage.Len()
	for s := 0; s < slots; s++ {
		playOracleSlot(ctx, t, srv, c, dev, s)
	}
	st := srv.Ingest().Stats()
	if st.Replans != 1 || st.TickErrors != 0 {
		t.Fatalf("after one divergent period: replans=%d tick errors=%d, want 1 and 0", st.Replans, st.TickErrors)
	}
	usage, charging, reports := observedReports(ctx, t, c, dev)

	// The session's charge when the period wrapped: the registration
	// ticked with every observed slot.
	before := reg
	before.DeviceID = "before"
	if _, err := ref.FleetRegister(ctx, before); err != nil {
		t.Fatal(err)
	}
	tick, err := ref.FleetTick(ctx, server.FleetTickRequest{DeviceID: before.DeviceID, Slots: reports})
	if err != nil {
		t.Fatal(err)
	}
	want := reg
	want.DeviceID = "after"
	want.Scenario.Usage = schedule.NewGrid(trace.Tau, usage)
	want.Scenario.Charging = schedule.NewGrid(trace.Tau, charging)
	want.Scenario.InitialCharge = math.Min(math.Max(tick.ChargeJ, reg.Scenario.CapacityMin), reg.Scenario.CapacityMax)
	if want.Scenario.InitialCharge == reg.Scenario.InitialCharge {
		t.Fatalf("the period left the charge at its registered %g J; the test cannot tell carried from reset", want.Scenario.InitialCharge)
	}
	if _, err := ref.FleetRegister(ctx, want); err != nil {
		t.Fatal(err)
	}

	// Off-plan reports make Algorithm 3 redistribute (the policy), so
	// any difference in the rebuilt plan, band or charge shows up in
	// the responses.
	replans := 0
	for i, rep := range reports {
		rep.UsedJ *= 1.5
		got, err := c.FleetTick(ctx, server.FleetTickRequest{DeviceID: dev, Slots: []server.SlotReport{rep}, IncludeState: true})
		if err != nil {
			t.Fatal(err)
		}
		exp, err := ref.FleetTick(ctx, server.FleetTickRequest{DeviceID: want.DeviceID, Slots: []server.SlotReport{rep}, IncludeState: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("slot %d after the replan:\n got %+v\nwant %+v", i, got, exp)
		}
		if got.ChargeJ < reg.Scenario.CapacityMin || got.ChargeJ > reg.Scenario.CapacityMax {
			t.Fatalf("slot %d: charge %g J outside the registered band", i, got.ChargeJ)
		}
		replans += got.Replans
	}
	if replans == 0 {
		t.Fatal("no tick redistributed; the policy is untested")
	}
}

// A tracked device whose session was idle-evicted mid-period still
// replans at the wrap, and the replan does what it does for a live
// session: a fresh session planned from the forecasts, starting from
// the parked charge. The parked checkpoint's old plan and mid-period
// slot are consumed, not resumed.
func TestIngestReplanResumesEvictedSession(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv, c := seamServer(t, time.Millisecond)
	ref := referenceServer(t)
	const dev = "sat-evict"
	reg := seamRegistration(dev, "yds")
	if _, err := c.FleetRegister(ctx, reg); err != nil {
		t.Fatal(err)
	}
	slots := reg.Scenario.Usage.Len()
	for s := 0; s < slots; s++ {
		if s == slots/2 {
			time.Sleep(5 * time.Millisecond)
			if err := srv.Fleet().SweepNow(ctx); err != nil {
				t.Fatal(err)
			}
			if fs := srv.Fleet().Stats(); fs.SessionsParked != 1 {
				t.Fatalf("sweep parked %d sessions, want 1", fs.SessionsParked)
			}
		}
		playOracleSlot(ctx, t, srv, c, dev, s)
	}
	st := srv.Ingest().Stats()
	if st.Replans != 1 {
		t.Fatalf("replans = %d, want 1", st.Replans)
	}
	if fs := srv.Fleet().Stats(); fs.Resumed != 0 {
		t.Fatalf("fleet resumed %d sessions, want 0 (the replan starts fresh)", fs.Resumed)
	}
	// Ticks succeed up to the eviction and fail with ErrEvicted after
	// it (the background sweeper may have evicted earlier than the
	// forced sweep), so the successful ticks are a prefix.
	ticked := slots - int(st.TickErrors)
	if ticked < 0 || ticked > slots/2 {
		t.Fatalf("tick errors = %d, want at least %d", st.TickErrors, slots-slots/2)
	}
	usage, charging, reports := observedReports(ctx, t, c, dev)

	// The parked charge: the registration ticked with the slots that
	// reached the session before it was evicted.
	before := reg
	before.DeviceID = "before"
	res, err := ref.FleetRegister(ctx, before)
	if err != nil {
		t.Fatal(err)
	}
	charge := res.ChargeJ
	if ticked > 0 {
		tick, err := ref.FleetTick(ctx, server.FleetTickRequest{DeviceID: before.DeviceID, Slots: reports[:ticked]})
		if err != nil {
			t.Fatal(err)
		}
		charge = tick.ChargeJ
	}
	want := reg
	want.DeviceID = "after"
	want.Scenario.Usage = schedule.NewGrid(trace.Tau, usage)
	want.Scenario.Charging = schedule.NewGrid(trace.Tau, charging)
	want.Scenario.InitialCharge = math.Min(math.Max(charge, reg.Scenario.CapacityMin), reg.Scenario.CapacityMax)
	if _, err := ref.FleetRegister(ctx, want); err != nil {
		t.Fatal(err)
	}
	wantState := drainedState(ctx, t, ref, want.DeviceID)
	got := drainedState(ctx, t, c, dev)
	if !reflect.DeepEqual(got.State, wantState.State) {
		t.Fatalf("replanned session is not a fresh registration from the forecasts:\n got %+v\nwant %+v", got.State, wantState.State)
	}
}

// POST /v1/fleet/drain untracks every drained device from ingestion,
// the idle-evicted ones included.
func TestFleetDrainUntracksEvictedDevices(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv, c := seamServer(t, time.Millisecond)
	register := func(id string) {
		t.Helper()
		if _, err := c.FleetRegister(ctx, server.FleetRegisterRequest{DeviceID: id, Scenario: trace.ScenarioI()}); err != nil {
			t.Fatal(err)
		}
	}
	register("parked")
	time.Sleep(5 * time.Millisecond)
	if err := srv.Fleet().SweepNow(ctx); err != nil {
		t.Fatal(err)
	}
	register("live")
	if n := srv.Ingest().Stats().Devices; n != 2 {
		t.Fatalf("tracked devices = %d, want 2", n)
	}
	res, err := c.FleetDrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	evicted := map[string]bool{}
	for _, d := range res.Devices {
		evicted[d.DeviceID] = d.Evicted
	}
	if res.Count != 2 || !evicted["parked"] {
		t.Fatalf("drain = %+v, want both devices with \"parked\" evicted", res.Devices)
	}
	stats, err := c.IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats.Devices != 0 || len(stats.Devices) != 0 {
		t.Fatalf("after drain ingestion still tracks %d devices: %+v", stats.Stats.Devices, stats.Devices)
	}
}

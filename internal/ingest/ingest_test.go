package ingest

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/schedule"
)

func waitStats(t *testing.T, d *Daemon, ok func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok(d.Stats()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached; stats %+v", d.Stats())
}

// stubReplanner records the bridge calls the daemon makes.
type stubReplanner struct {
	mu           sync.Mutex
	ticks        []SlotObservation
	replans      int
	lastUsage    *schedule.Grid
	lastCharging *schedule.Grid
	replanErr    error
}

func (r *stubReplanner) Tick(_ context.Context, _ string, obs SlotObservation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ticks = append(r.ticks, obs)
	return nil
}

func (r *stubReplanner) Replan(_ context.Context, _ string, usage, charging *schedule.Grid) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.replanErr != nil {
		return r.replanErr
	}
	r.replans++
	r.lastUsage, r.lastCharging = usage, charging
	return nil
}

func (r *stubReplanner) snapshot() (int, *schedule.Grid, *schedule.Grid) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replans, r.lastUsage, r.lastCharging
}

func flat(n int, v float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return vals
}

// playPeriod injects one flush window per slot (events at the given
// rate, an absolute charge gauge) and flushes it, for a full period.
func playPeriod(t *testing.T, d *Daemon, dev string, slots int, events int, chargeW float64) {
	t.Helper()
	for s := 0; s < slots; s++ {
		var b strings.Builder
		for e := 0; e < events; e++ {
			fmt.Fprintf(&b, "%s.events:1|c\n", dev)
		}
		fmt.Fprintf(&b, "%s.charge:%g|g", dev, chargeW)
		d.Inject([]byte(b.String()))
		if _, err := d.FlushNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrackFlushForecastReplan(t *testing.T) {
	// Full loop: a tracked device whose observed usage doubles must,
	// after the hysteresis arms, get exactly one forecast-driven replan
	// at the next period wrap — with the forecast matching the observed
	// period, not the stale registration plan.
	rp := &stubReplanner{}
	d, err := New(Config{
		Replanner:    rp,
		EventEnergyJ: 4.8, // one event per window == one watt
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const slots = 4
	usage := schedule.NewGrid(4.8, flat(slots, 1))
	charging := schedule.NewGrid(4.8, flat(slots, 2))
	if err := d.Track("sat-007", usage, charging); err != nil {
		t.Fatal(err)
	}

	// Period 1 matches the plan: no divergence, and the wrap gives the
	// last-period predictor its first forecast.
	playPeriod(t, d, "sat-007", slots, 1, 2)
	if n, _, _ := rp.snapshot(); n != 0 {
		t.Fatalf("replans after matching period = %d", n)
	}
	st := d.Stats()
	if st.SlotsClosed != slots || st.Flushes != slots {
		t.Fatalf("slots/flushes = %d/%d, want %d/%d", st.SlotsClosed, st.Flushes, slots, slots)
	}

	// Period 2 doubles the usage: every slot breaches (rel err 1.0),
	// the third consecutive breach arms the replan, and the period wrap
	// fires it with the doubled forecast.
	playPeriod(t, d, "sat-007", slots, 2, 2)
	n, fu, fc := rp.snapshot()
	if n != 1 {
		t.Fatalf("replans after divergent period = %d, want 1", n)
	}
	if !fu.Equal(schedule.NewGrid(4.8, flat(slots, 2)), 1e-9) {
		t.Errorf("forecast usage = %v, want flat 2 W", fu.Values)
	}
	if !fc.Equal(schedule.NewGrid(4.8, flat(slots, 2)), 1e-9) {
		t.Errorf("forecast charging = %v, want flat 2 W", fc.Values)
	}

	// Period 3 holds the doubled rate: it now matches the replanned
	// expectation, so no further replans fire.
	playPeriod(t, d, "sat-007", slots, 2, 2)
	if n, _, _ := rp.snapshot(); n != 1 {
		t.Errorf("replans after converged period = %d, want still 1", n)
	}
	if got := d.Stats().Replans; got != 1 {
		t.Errorf("stats replans = %d, want 1", got)
	}

	// Ticks carried the observed energies: 12 slots, the divergent
	// period's at 2 W × 4.8 s.
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if len(rp.ticks) != 3*slots {
		t.Fatalf("ticks = %d, want %d", len(rp.ticks), 3*slots)
	}
	mid := rp.ticks[slots]
	if mid.Slot != 0 || mid.UsedJ != 2*4.8 || mid.SuppliedJ != 2*4.8 {
		t.Errorf("divergent-period first tick = %+v", mid)
	}

	// The flush span tree shows the staged pipeline.
	_, spans := d.LastFlush()
	if len(spans) != 1 || spans[0].Name != "ingest.flush" {
		t.Fatalf("span roots = %+v", spans)
	}
	if len(spans[0].Spans) != 1 || spans[0].Spans[0].Name != "ingest.forecast" {
		t.Fatalf("flush children = %+v", spans[0].Spans)
	}
}

func TestDivergenceHysteresisNoFlap(t *testing.T) {
	// A rate oscillating across the threshold boundary every other
	// window must not flap replans: the breach streak never reaches
	// HysteresisUp, so zero replans fire no matter how many times the
	// score crosses the line.
	rp := &stubReplanner{}
	d, err := New(Config{
		Replanner:           rp,
		EventEnergyJ:        4.8,
		DivergenceThreshold: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const slots = 4
	plan := schedule.NewGrid(4.8, flat(slots, 2))
	if err := d.Track("osc", plan, plan); err != nil {
		t.Fatal(err)
	}
	// 6 periods of alternating breach (3 events = 1.5× plan, rel err
	// 0.5) and clear (2 events, rel err 0) windows.
	for w := 0; w < 6*slots; w++ {
		events := 2
		if w%2 == 0 {
			events = 3
		}
		var b strings.Builder
		for e := 0; e < events; e++ {
			fmt.Fprintf(&b, "osc.events:1|c\n")
		}
		b.WriteString("osc.charge:2|g")
		d.Inject([]byte(b.String()))
		if _, err := d.FlushNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n, _, _ := rp.snapshot(); n != 0 {
		t.Fatalf("oscillating boundary fired %d replans, want 0", n)
	}

	// A sustained breach window fires exactly once: the replan adopts
	// the observed rate, divergence collapses, and the cooldown holds
	// until the clear streak re-arms — no second replan for the same
	// sustained shift.
	for p := 0; p < 3; p++ {
		playPeriod(t, d, "osc", slots, 4, 2) // 2× plan, every window breaches
	}
	if n, _, _ := rp.snapshot(); n != 1 {
		t.Fatalf("sustained breach fired %d replans, want exactly 1", n)
	}
}

func TestGaugeSemantics(t *testing.T) {
	// Absolute gauges set the level, signed gauges move it, and a
	// silent window carries the last level forward.
	rp := &stubReplanner{}
	d, err := New(Config{Replanner: rp, EventEnergyJ: 4.8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	plan := schedule.NewGrid(4.8, flat(2, 1))
	if err := d.Track("g", plan, plan); err != nil {
		t.Fatal(err)
	}
	// Window 1: 3.0 then -1.0 delta → samples 3 and 2, mean 2.5 W.
	d.Inject([]byte("g.charge:3|g\ng.charge:-1|g"))
	if _, err := d.FlushNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Window 2: silence → carry the 2 W level forward.
	if _, err := d.FlushNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if len(rp.ticks) != 2 {
		t.Fatalf("ticks = %d", len(rp.ticks))
	}
	if got := rp.ticks[0].SuppliedJ; got != 2.5*4.8 {
		t.Errorf("window 1 supplied = %g J, want %g", got, 2.5*4.8)
	}
	if got := rp.ticks[1].SuppliedJ; got != 2*4.8 {
		t.Errorf("carry-forward window supplied = %g J, want %g", got, 2.0*4.8)
	}
}

// deviceReplanner records each device's last tick.
type deviceReplanner struct {
	mu    sync.Mutex
	ticks map[string]SlotObservation
}

func (r *deviceReplanner) Tick(_ context.Context, id string, o SlotObservation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ticks[id] = o
	return nil
}

func (r *deviceReplanner) Replan(context.Context, string, *schedule.Grid, *schedule.Grid) error {
	return nil
}

func TestMixedDatagramKeepsPerDeviceOrder(t *testing.T) {
	// One datagram interleaving devices: each device's samples must
	// still apply in arrival order, so an absolute gauge then a signed
	// one averages 3 and 2 (2.5 W), where the reverse order would
	// average 0 and 3.
	rp := &deviceReplanner{ticks: map[string]SlotObservation{}}
	d, err := New(Config{Replanner: rp, EventEnergyJ: 4.8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	plan := schedule.NewGrid(4.8, flat(2, 1))
	ids := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	var b strings.Builder
	for _, id := range ids {
		if err := d.Track(id, plan, plan); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s.charge:3|g\n", id)
	}
	for _, id := range ids {
		fmt.Fprintf(&b, "%s.charge:-1|g\n%s.events:2|c\n", id, id)
	}
	d.Inject([]byte(b.String()))
	waitStats(t, d, func(st Stats) bool { return st.SamplesApplied == uint64(3*len(ids)) })
	if _, err := d.FlushNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for _, id := range ids {
		o, ok := rp.ticks[id]
		if !ok {
			t.Errorf("%s: no tick", id)
			continue
		}
		if o.SuppliedJ != 2.5*4.8 || o.UsedJ != 2*4.8 {
			t.Errorf("%s: supplied %g J used %g J, want %g and %g", id, o.SuppliedJ, o.UsedJ, 2.5*4.8, 2*4.8)
		}
	}
}

func TestTrackValidationAndCap(t *testing.T) {
	d, err := New(Config{MaxDevices: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := schedule.NewGrid(4.8, flat(2, 1))
	if err := d.Track("", g, g); err == nil {
		t.Error("empty device id must be rejected")
	}
	if err := d.Track("a", nil, g); err == nil {
		t.Error("nil grid must be rejected")
	}
	if err := d.Track("a", g, schedule.NewGrid(2.4, flat(2, 1))); err == nil {
		t.Error("mismatched geometry must be rejected")
	}
	if err := d.Track("a", g, g); err != nil {
		t.Fatal(err)
	}
	if err := d.Track("b", g, g); err != nil {
		t.Fatal(err)
	}
	if err := d.Track("c", g, g); err == nil {
		t.Error("tracking beyond MaxDevices must be rejected")
	}
	if got := d.Stats().Drops[DropCardinality]; got != 1 {
		t.Errorf("cardinality drops = %d, want 1", got)
	}
	// Re-tracking an existing device is not a new slot.
	if err := d.Track("a", g, g); err != nil {
		t.Errorf("re-track: %v", err)
	}
	d.Untrack("b")
	if err := d.Track("c", g, g); err != nil {
		t.Errorf("track after untrack: %v", err)
	}
	if got := d.Stats().Devices; got != 2 {
		t.Errorf("devices = %d, want 2", got)
	}
}

func TestUDPIngestAndCleanShutdown(t *testing.T) {
	// The daemon must drain real UDP datagrams and leave no goroutines
	// behind after Close — the leak check the CI smoke repeats against
	// the full binary.
	before := runtime.NumGoroutine()
	d, err := New(Config{Addr: "127.0.0.1:0", FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	g := schedule.NewGrid(4.8, flat(2, 1))
	if err := d.Track("u", g, g); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 20; i++ {
		if _, err := conn.Write([]byte("u.events:2|c\nu.charge:1.5|g")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitStats(t, d, func(st Stats) bool { return st.SamplesApplied >= 2 && st.Flushes >= 1 })
	d.Close()
	d.Close() // idempotent
	if _, err := d.FlushNow(context.Background()); err != ErrClosed {
		t.Errorf("FlushNow after Close = %v, want ErrClosed", err)
	}
	if err := d.Track("x", g, g); err != ErrClosed {
		t.Errorf("Track after Close = %v, want ErrClosed", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d before, %d after Close", before, after)
	}
}

func TestWritePromFamilies(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := schedule.NewGrid(4.8, flat(2, 1))
	if err := d.Track("p", g, g); err != nil {
		t.Fatal(err)
	}
	d.Inject([]byte("p.events:1|c\nbogus"))
	if _, err := d.FlushNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := d.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dpmd_ingest_lines_total 2",
		"dpmd_ingest_lines_parsed_total 1",
		`dpmd_ingest_lines_dropped_total{reason="malformed"} 1`,
		`dpmd_ingest_lines_dropped_total{reason="cardinality"} 0`,
		"dpmd_ingest_replans_total 0",
		"dpmd_ingest_devices 1",
		`dpmd_ingest_divergence_score{device="p"}`,
		"dpmd_ingest_flush_duration_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"unknown predictor":  {Predictor: "oracle"},
		"negative threshold": {DivergenceThreshold: -1},
		"negative energy":    {EventEnergyJ: -2},
		"negative flush":     {FlushInterval: -time.Second},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config must be rejected", name)
		}
	}
}

// TestWritePromDivergenceSection pins the dpmd_ingest_divergence_score
// exposition: one line per tracked device, in id order, rendering the
// id with %q and the score with %g exactly as DeviceStatuses reports
// them.
func TestWritePromDivergenceSection(t *testing.T) {
	d, err := New(Config{EventEnergyJ: 1.7})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const slots = 4
	g := schedule.NewGrid(4.8, flat(slots, 1))
	for _, id := range []string{"sat-b", "sat-a", "sat-c", `we"ird\id`, "naïve\tid"} {
		if err := d.Track(id, g, g); err != nil {
			t.Fatal(err)
		}
	}
	// Two periods at different rates leave each active device with a
	// forecast and a distinct, non-round divergence score.
	for p, rates := range [][]int{{1, 2, 3}, {3, 1, 7}} {
		for s := 0; s < slots; s++ {
			var b strings.Builder
			for i, id := range []string{"sat-a", "sat-b", "sat-c"} {
				fmt.Fprintf(&b, "%s.events:%d|c\n%s.charge:%g|g\n", id, rates[i]+s*p, id, 1.0/3)
			}
			d.Inject([]byte(b.String()))
			if _, err := d.FlushNow(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want strings.Builder
	const score = "dpmd_ingest_divergence_score"
	fmt.Fprintf(&want, "# HELP %s Last observed-vs-planned relative error, by device.\n# TYPE %s gauge\n", score, score)
	statuses := d.DeviceStatuses()
	if len(statuses) != 5 || statuses[0].ForecastUsage == nil {
		t.Fatalf("setup: %d devices, first forecast %v", len(statuses), statuses[0].ForecastUsage)
	}
	for _, ds := range statuses {
		fmt.Fprintf(&want, "%s{device=%q} %g\n", score, ds.DeviceID, ds.Divergence)
	}
	var out strings.Builder
	if err := d.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	section, rest, ok := strings.Cut(out.String(), want.String())
	if !ok {
		t.Fatalf("divergence section missing; want\n%s\ngot\n%s", want.String(), out.String())
	}
	if !strings.HasSuffix(section, "dpmd_ingest_devices 5\n") || !strings.HasPrefix(rest, "# HELP dpmd_ingest_flush_duration_seconds") {
		t.Errorf("divergence section out of place:\n%s", out.String())
	}
}

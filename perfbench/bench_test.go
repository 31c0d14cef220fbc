package main

import (
	"bytes"
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/fleet"
	"dpm/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := func() []float64 { return []float64{7, 3, 10, 1, 5, 9, 2, 8, 4, 6} }
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs(), c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4.2}, 99); got != 4.2 {
		t.Errorf("single sample p99 = %g", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty sample p50 = %g, want NaN", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "a.child", Parent: 1, Start: 20, End: 30},
		{Name: "b", Parent: 0, Start: 50, End: 70},
	}
	want := []int64{50, 20, 10, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if l := agg["a"]; l.Count != 1 || l.SelfNs != 20 {
		t.Errorf("aggregate a = %+v", l)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.start("x", -1, 1)
	tr.end(i)
	tr.endAs(i, "y")
	if i != -1 || tr.currentParent() != -1 {
		t.Fatalf("nil tracer returned span %d", i)
	}
}

func TestOpTimingFromDueTime(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return base.Add(time.Duration(ms * float64(time.Millisecond))) }
	// Free before it was due: the latency includes the generator's
	// 2 ms of oversleep, which is also its lag.
	lat, lag := opTiming(at(0), at(-5), at(2), at(10))
	if lat != 10*time.Millisecond || lag != 2*time.Millisecond {
		t.Errorf("idle worker: lat %s lag %s, want 10ms 2ms", lat, lag)
	}
	// Busy until 7 ms past due: the queueing counts as latency, not lag.
	lat, lag = opTiming(at(0), at(7), at(8), at(12))
	if lat != 12*time.Millisecond || lag != time.Millisecond {
		t.Errorf("busy worker: lat %s lag %s, want 12ms 1ms", lat, lag)
	}
}

func TestSlicesAndCPU(t *testing.T) {
	base := time.Unix(1000, 0)
	samples := []cpuSample{
		{base, 10},
		{base.Add(time.Second), 10.5},
		{base.Add(2 * time.Second), 11.5},
		{base.Add(2*time.Second + 100*time.Millisecond), 11.6}, // too short to count
	}
	var lat []time.Duration
	var done []time.Time
	add := func(n int, at time.Time, l time.Duration) {
		for i := 0; i < n; i++ {
			lat = append(lat, l)
			done = append(done, at)
		}
	}
	add(100, base.Add(500*time.Millisecond), time.Millisecond)
	add(50, base.Add(1500*time.Millisecond), 3*time.Millisecond)
	thr, p50, p99, cpu := slices(samples, lat, done)
	if len(thr) != 2 || thr[0] != 100 || thr[1] != 50 {
		t.Errorf("throughput %v, want [100 50]", thr)
	}
	if len(p50) != 2 || p50[0] != 1 || p50[1] != 3 {
		t.Errorf("p50 %v, want [1 3]", p50)
	}
	// The first slice's 100 operations form a p99 group; the trailing
	// 50 fall short of one and are dropped.
	if len(p99) != 1 || p99[0] != 1 {
		t.Errorf("p99 %v, want [1]", p99)
	}
	if len(cpu) != 2 || cpu[0].ops != 100 || math.Abs(cpu[1].sec-1) > 1e-9 {
		t.Errorf("cpu %+v", cpu)
	}
	// 5000 µs/op and 20000 µs/op: with two slices, the middle half is both.
	if got := cpuPerOpUS(cpu); math.Abs(got-1.5e6/150) > 1e-6 {
		t.Errorf("cpu per op %g µs, want %g", got, 1.5e6/150)
	}
}

func TestCPUPerOpTrimsOutliers(t *testing.T) {
	s := []sliceCPU{{1, 100}, {1, 100}, {1, 100}, {9, 100}} // one slow slice
	if got := cpuPerOpUS(s); got != 1e4 {
		t.Errorf("cpu per op %g µs, want 1e4", got)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x y
# TYPE dpmd_cache_shard_hits_total counter
dpmd_cache_shard_hits_total{cache="plan",shard="0"} 3
dpmd_cache_shard_hits_total{cache="plan",shard="1"} 4
dpmd_cache_shard_hits_total{cache="table",shard="0"} 100
dpmd_cache_shard_hits_total_other 7
go_gc_cycles_total 12
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("dpmd_cache_shard_hits_total", `cache="plan"`); got != 7 {
		t.Errorf("plan hits %g, want 7", got)
	}
	if got := p.sum("dpmd_cache_shard_hits_total"); got != 107 {
		t.Errorf("all hits %g, want 107", got)
	}
	if got := p.sum("go_gc_cycles_total"); got != 12 {
		t.Errorf("gc cycles %g", got)
	}
}

// TestTamperedPlanBodyFails checks that a reply differing from the
// in-process plan in one byte, or with the wrong status or cache
// disposition, is a failure in both encodings.
func TestTamperedPlanBodyFails(t *testing.T) {
	ctx := context.Background()
	sc := variantScenario("t", 0, 7, hotJitter)
	for _, binary := range []bool{false, true} {
		c, err := newPlanCase(ctx, sc, binary)
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkPlanReply(200, "hit", "hit", c.want, c.want); msg != "" {
			t.Fatalf("binary=%v: correct reply rejected: %s", binary, msg)
		}
		tampered := bytes.Clone(c.want)
		tampered[len(tampered)/2] ^= 1
		for name, msg := range map[string]string{
			"tampered body": checkPlanReply(200, "hit", "hit", tampered, c.want),
			"wrong cache":   checkPlanReply(200, "miss", "hit", c.want, c.want),
			"status 503":    checkPlanReply(503, "hit", "hit", c.want, c.want),
		} {
			if msg == "" {
				t.Errorf("binary=%v: %s passed the check", binary, name)
			}
		}
		got, err := decodeAllocation(c.want, binary)
		if err != nil || !sameFloats(got, c.wantPlan) {
			t.Errorf("binary=%v: expected reply decodes to %v (%v), want %v", binary, got, err, c.wantPlan)
		}
	}
}

func TestBandCheck(t *testing.T) {
	ctx := context.Background()
	sc := trace.ScenarioI()
	resp, err := oracle(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkBand(resp, sc); msg != "" {
		t.Fatalf("paper scenario I: %s", msg)
	}
	resp.Feasible = true
	resp.Trajectory = append([]float64(nil), resp.Trajectory...)
	resp.Trajectory[3] = sc.CapacityMax + 1
	if checkBand(resp, sc) == "" {
		t.Error("a trajectory above Cmax passed the band check")
	}
}

// TestMissingDatagramFails checks the telemetry reconciliation: a
// clean tally passes, and one lost datagram, one dropped line, one
// tick error or a replan-count mismatch each fail.
func TestMissingDatagramFails(t *testing.T) {
	clean := telemetryTally{windows: 3, devices: 2, sent: 6, received: 6, slotsClosed: 6, replans: 1, replayReplans: 1}
	if reasons, n := clean.failures(); n != 0 {
		t.Fatalf("clean tally failed: %v", reasons)
	}
	for name, mutate := range map[string]func(*telemetryTally){
		"missing datagram": func(t *telemetryTally) { t.received-- },
		"socket drop":      func(t *telemetryTally) { t.socketDrops = 1 },
		"dropped line":     func(t *telemetryTally) { t.lineDrops = 1 },
		"tick error":       func(t *telemetryTally) { t.tickErrors = 1 },
		"slot not closed":  func(t *telemetryTally) { t.slotsClosed-- },
		"replan mismatch":  func(t *telemetryTally) { t.replans++ },
		"charge off band":  func(t *telemetryTally) { t.outOfBand = 1 },
		"session mismatch": func(t *telemetryTally) { t.stateMismatch = 1 },
	} {
		tally := clean
		mutate(&tally)
		if reasons, n := tally.failures(); n == 0 || len(reasons) == 0 {
			t.Errorf("%s passed the reconciliation", name)
		}
	}
}

func TestCompareDrained(t *testing.T) {
	want := []fleet.Drained{
		{DeviceID: "a", Slot: 3, ChargeJ: 1, State: dpm.State{Plan: []float64{1, 2}}},
		{DeviceID: "b", Slot: 3, ChargeJ: 2, State: dpm.State{Plan: []float64{3, 4}}},
	}
	got := []drainedDevice{
		{id: "a", slot: 3, charge: 1, plan: []float64{1, 2}},
		{id: "b", slot: 3, charge: 2, plan: []float64{3, 4}},
	}
	if oob, mis := compareDrained(got, want, 0.5, 10); oob != 0 || mis != 0 {
		t.Fatalf("equal sessions: out of band %d, mismatched %d", oob, mis)
	}
	got[1].charge = math.Nextafter(2, 3)
	got[0].charge = 11
	if oob, mis := compareDrained(got, want, 0.5, 10); oob != 1 || mis != 2 {
		t.Errorf("out of band %d (want 1), mismatched %d (want 2)", oob, mis)
	}
	if _, mis := compareDrained(got[:1], want, 0.5, 10); mis != 2 {
		t.Errorf("a missing session counts %d mismatches, want 2", mis)
	}
}

// TestTelemetryReplayIsDeterministic replays the first periods twice
// and compares the drained sessions: the reconciliation relies on the
// replay being an exact oracle.
func TestTelemetryReplayIsDeterministic(t *testing.T) {
	ctx := context.Background()
	s, err := newTelemetryStream(5, 48)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(tr *tracer) ([]fleet.Drained, uint64) {
		m, err := replayTelemetry(ctx, s, tr, len(s.windows))
		if err != nil {
			t.Fatal(err)
		}
		defer m.close()
		d, err := m.fleet.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return d, m.daemon.Stats().Replans
	}
	a, ra := drain(nil)
	b, rb := drain(newTracer())
	if ra != rb || ra == 0 {
		t.Fatalf("replans %d vs %d; want equal and non-zero", ra, rb)
	}
	got := make([]drainedDevice, len(b))
	for i, d := range b {
		got[i] = drainedDevice{id: d.DeviceID, slot: d.Slot, charge: d.ChargeJ, plan: d.State.Plan}
	}
	if oob, mis := compareDrained(got, a, trace.DefaultCapacityMin, trace.DefaultCapacityMax); oob != 0 || mis != 0 {
		t.Errorf("out of band %d, mismatched %d", oob, mis)
	}
}

// TestSmoke builds dpmd and drives every workload for a second.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots dpmd")
	}
	bin := filepath.Join(t.TempDir(), "dpmd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dpmd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dpmd: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-dpmd", bin, "-repo", "..", "-out", t.TempDir()}, &stdout, &stderr)
	t.Log(stdout.String())
	if code != 0 {
		t.Fatalf("smoke run exited %d\n%s", code, stderr.String())
	}
}

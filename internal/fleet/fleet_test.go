package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/scenario"
	"dpm/internal/trace"
)

// testParams returns the default PAMA hardware configuration.
func testParams(t testing.TB) params.Config {
	t.Helper()
	pcfg, err := (*scenario.Hardware)(nil).WithDefaults().ParamsConfig()
	if err != nil {
		t.Fatal(err)
	}
	return pcfg
}

// newTestManager builds a manager and closes it with the test.
func newTestManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// registerSpec is the canonical Scenario I session.
func registerSpec(t testing.TB, device string) RegisterSpec {
	t.Helper()
	return RegisterSpec{
		DeviceID: device,
		Scenario: trace.ScenarioI(),
		Params:   testParams(t),
		Policy:   dpm.Proportional,
	}
}

// TestTickParityWithReplay is the core semantic pin: a session fed N
// slot reports one tick at a time must produce *identical* floats —
// plan, charge, slot, checkpoint — to the stateless pipeline.Replay
// path round-tripping a checkpoint per call, because both run the same
// dpm.Manager code over the same state.
func TestTickParityWithReplay(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 4})
	spec := registerSpec(t, "dev-parity")
	if _, err := m.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}

	var state *dpm.State
	for step := 0; step < 25; step++ {
		rep := pipeline.SlotReport{
			UsedJ:     9.0 + float64(step%7)*0.83,
			SuppliedJ: 10.0 + float64(step%5)*1.21,
		}
		got, err := m.Tick(ctx, TickSpec{
			DeviceID:     spec.DeviceID,
			Reports:      []pipeline.SlotReport{rep},
			IncludeState: true,
		})
		if err != nil {
			t.Fatalf("tick %d: %v", step, err)
		}
		mgr, err := pipeline.Replay(ctx, spec.Scenario, spec.Params, spec.Policy, state, []pipeline.SlotReport{rep})
		if err != nil {
			t.Fatalf("replay %d: %v", step, err)
		}
		wantPlan := mgr.PlanSnapshot()
		if len(got.Plan) != len(wantPlan) {
			t.Fatalf("tick %d: plan length %d, want %d", step, len(got.Plan), len(wantPlan))
		}
		for i := range wantPlan {
			if got.Plan[i] != wantPlan[i] {
				t.Fatalf("tick %d: plan[%d] = %g, want %g", step, i, got.Plan[i], wantPlan[i])
			}
		}
		if got.ChargeJ != mgr.Charge() || got.Slot != mgr.Slot() {
			t.Fatalf("tick %d: (charge, slot) = (%g, %d), want (%g, %d)",
				step, got.ChargeJ, got.Slot, mgr.Charge(), mgr.Slot())
		}
		st := mgr.Checkpoint()
		state = &st
		if got.State == nil {
			t.Fatalf("tick %d: missing requested state", step)
		}
		if got.State.Slot != st.Slot || got.State.Charge != st.Charge {
			t.Fatalf("tick %d: checkpoint (slot %d charge %g), want (%d %g)",
				step, got.State.Slot, got.State.Charge, st.Slot, st.Charge)
		}
		for i := range st.Plan {
			if got.State.Plan[i] != st.Plan[i] {
				t.Fatalf("tick %d: checkpoint plan[%d] = %g, want %g", step, i, got.State.Plan[i], st.Plan[i])
			}
		}
	}
}

// TestMultiReportTick checks a batched tick (several reports at once)
// against the same reports applied one by one.
func TestMultiReportTick(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 1})
	one := registerSpec(t, "dev-one-by-one")
	many := registerSpec(t, "dev-batched")
	if _, err := m.Register(ctx, one); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, many); err != nil {
		t.Fatal(err)
	}
	reports := []pipeline.SlotReport{
		{UsedJ: 9.5, SuppliedJ: 11.0},
		{UsedJ: 8.0, SuppliedJ: 10.0},
		{UsedJ: 12.0, SuppliedJ: 9.0},
	}
	var last TickResult
	for _, rep := range reports {
		res, err := m.Tick(ctx, TickSpec{DeviceID: one.DeviceID, Reports: []pipeline.SlotReport{rep}})
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	batched, err := m.Tick(ctx, TickSpec{DeviceID: many.DeviceID, Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Slot != last.Slot || batched.ChargeJ != last.ChargeJ {
		t.Fatalf("batched (slot %d charge %g) != sequential (slot %d charge %g)",
			batched.Slot, batched.ChargeJ, last.Slot, last.ChargeJ)
	}
	for i := range last.Plan {
		if batched.Plan[i] != last.Plan[i] {
			t.Fatalf("plan[%d]: batched %g != sequential %g", i, batched.Plan[i], last.Plan[i])
		}
	}
}

// TestSeqDedup pins the retry contract: a tick repeating the last seq
// is answered from memory — same plan, same slot, no double-apply.
func TestSeqDedup(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 1})
	spec := registerSpec(t, "dev-seq")
	if _, err := m.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}
	tick := TickSpec{
		DeviceID: spec.DeviceID,
		Seq:      7,
		Reports:  []pipeline.SlotReport{{UsedJ: 9.5, SuppliedJ: 11.0}},
	}
	first, err := m.Tick(ctx, tick)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed {
		t.Fatal("first tick marked replayed")
	}
	second, err := m.Tick(ctx, tick)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Replayed {
		t.Fatal("duplicate-seq tick not replayed")
	}
	if second.Slot != first.Slot || second.ChargeJ != first.ChargeJ {
		t.Fatalf("replayed (slot %d charge %g) != original (slot %d charge %g)",
			second.Slot, second.ChargeJ, first.Slot, first.ChargeJ)
	}
	// A replay with IncludeState gets the memoized checkpoint even
	// though the original tick did not ask for it.
	withState, err := m.Tick(ctx, TickSpec{DeviceID: tick.DeviceID, Seq: 7, Reports: tick.Reports, IncludeState: true})
	if err != nil {
		t.Fatal(err)
	}
	if withState.State == nil || withState.State.Slot != first.Slot {
		t.Fatal("replayed tick with includeState missing the memoized checkpoint")
	}
	if got := m.Stats(); got.Replays != 2 || got.Ticks != 1 {
		t.Fatalf("stats ticks=%d replays=%d, want 1 and 2", got.Ticks, got.Replays)
	}
}

// TestCorruptCheckpoint: a register carrying a checkpoint the manager
// refuses must fail with *BadCheckpointError (the server's structured
// 400) before any session state changes.
func TestCorruptCheckpoint(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 1})
	spec := registerSpec(t, "dev-corrupt")
	spec.State = &dpm.State{
		Plan:   []float64{math.NaN(), 1, 2},
		Slot:   -3,
		Charge: math.Inf(1),
	}
	_, err := m.Register(ctx, spec)
	var bad *BadCheckpointError
	if !errors.As(err, &bad) {
		t.Fatalf("got %v, want *BadCheckpointError", err)
	}
	if m.Live() != 0 {
		t.Fatalf("%d live sessions after rejected register", m.Live())
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: spec.DeviceID, Reports: []pipeline.SlotReport{{UsedJ: 1, SuppliedJ: 1}}}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("tick after rejected register: %v, want ErrUnknownDevice", err)
	}
}

// TestEvictReregisterResume: an idle-evicted session's checkpoint is
// parked; ticking it answers ErrEvicted; re-registering without a
// checkpoint resumes it byte-identically to an uninterrupted control
// session.
func TestEvictReregisterResume(t *testing.T) {
	ctx := context.Background()
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	m := newTestManager(t, Config{Partitions: 1, IdleTTL: time.Minute, Now: now})
	evicted := registerSpec(t, "dev-evicted")
	control := registerSpec(t, "dev-control")
	if _, err := m.Register(ctx, evicted); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, control); err != nil {
		t.Fatal(err)
	}
	rep := []pipeline.SlotReport{{UsedJ: 9.5, SuppliedJ: 11.0}}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: evicted.DeviceID, Reports: rep}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: control.DeviceID, Reports: rep}); err != nil {
		t.Fatal(err)
	}

	// Only the evicted device goes idle; the control keeps ticking its
	// clock forward via lastActive.
	advance(30 * time.Second)
	if _, err := m.Tick(ctx, TickSpec{DeviceID: control.DeviceID, Reports: []pipeline.SlotReport{{UsedJ: 8, SuppliedJ: 10}}}); err != nil {
		t.Fatal(err)
	}
	advance(45 * time.Second)
	if err := m.SweepNow(ctx); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Evictions != 1 || st.SessionsParked != 1 {
		t.Fatalf("evictions=%d parked=%d, want 1 and 1", st.Evictions, st.SessionsParked)
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: evicted.DeviceID, Reports: rep}); !errors.Is(err, ErrEvicted) {
		t.Fatalf("tick of evicted session: %v, want ErrEvicted", err)
	}

	// Handback: re-register with no checkpoint resumes the parked one.
	res, err := m.Register(ctx, registerSpec(t, evicted.DeviceID))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("re-register did not resume the parked checkpoint")
	}
	if res.Slot != 1 {
		t.Fatalf("resumed at slot %d, want 1", res.Slot)
	}
	if st := m.Stats(); st.SessionsParked != 0 {
		t.Fatalf("parked=%d after handback, want 0", st.SessionsParked)
	}

	// From here both sessions must evolve identically: the control
	// applied {9.5, 11.0} then {8, 10}; catch the resumed one up with
	// the same second report and compare plans exactly.
	caughtUp, err := m.Tick(ctx, TickSpec{DeviceID: evicted.DeviceID, Reports: []pipeline.SlotReport{{UsedJ: 8, SuppliedJ: 10}}, IncludeState: true})
	if err != nil {
		t.Fatal(err)
	}
	controlNow, err := m.Tick(ctx, TickSpec{DeviceID: control.DeviceID, Reports: []pipeline.SlotReport{{UsedJ: 7, SuppliedJ: 7}}, IncludeState: true})
	if err != nil {
		t.Fatal(err)
	}
	// controlNow has one extra slot; compare the resumed session
	// against the control's *previous* checkpoint instead: rebuild it
	// from the stateless path.
	mgr, err := pipeline.Replay(ctx, control.Scenario, control.Params, control.Policy, nil, []pipeline.SlotReport{
		{UsedJ: 9.5, SuppliedJ: 11.0}, {UsedJ: 8, SuppliedJ: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := mgr.PlanSnapshot()
	for i := range wantPlan {
		if caughtUp.Plan[i] != wantPlan[i] {
			t.Fatalf("resumed plan[%d] = %g, want %g (eviction broke continuity)", i, caughtUp.Plan[i], wantPlan[i])
		}
	}
	if caughtUp.Slot != mgr.Slot() || caughtUp.ChargeJ != mgr.Charge() {
		t.Fatalf("resumed (slot %d charge %g), want (%d %g)", caughtUp.Slot, caughtUp.ChargeJ, mgr.Slot(), mgr.Charge())
	}
	_ = controlNow
}

// TestExplicitStateSupersedesParked: a register carrying its own
// checkpoint consumes (discards) any parked one.
func TestExplicitStateSupersedesParked(t *testing.T) {
	ctx := context.Background()
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	m := newTestManager(t, Config{Partitions: 1, IdleTTL: time.Minute, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}})
	spec := registerSpec(t, "dev-supersede")
	if _, err := m.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: spec.DeviceID, Reports: []pipeline.SlotReport{{UsedJ: 9.5, SuppliedJ: 11}}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	clock = clock.Add(2 * time.Minute)
	mu.Unlock()
	if err := m.SweepNow(ctx); err != nil {
		t.Fatal(err)
	}
	// Re-register with an explicit fresh-start checkpoint (nil state
	// would resume the parked slot-1 state).
	fresh, err := dpm.New(pipeline.ManagerConfig(spec.Scenario, spec.Params, spec.Policy))
	if err != nil {
		t.Fatal(err)
	}
	st := fresh.Checkpoint()
	spec.State = &st
	res, err := m.Register(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != 0 {
		t.Fatalf("explicit slot-0 register resumed the parked state at slot %d", res.Slot)
	}
	if st := m.Stats(); st.SessionsParked != 0 {
		t.Fatalf("parked=%d, want 0 (superseded checkpoint must not linger)", st.SessionsParked)
	}
}

// TestSessionCap: registers beyond MaxSessions fail with ErrFull, but
// a replacement register for a live device always succeeds.
func TestSessionCap(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 2, MaxSessions: 2})
	if _, err := m.Register(ctx, registerSpec(t, "cap-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, registerSpec(t, "cap-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, registerSpec(t, "cap-c")); !errors.Is(err, ErrFull) {
		t.Fatalf("third register: %v, want ErrFull", err)
	}
	res, err := m.Register(ctx, registerSpec(t, "cap-a"))
	if err != nil {
		t.Fatalf("replacement register: %v", err)
	}
	if !res.Replaced {
		t.Fatal("replacement register not marked replaced")
	}
	if m.Live() != 2 {
		t.Fatalf("live=%d, want 2", m.Live())
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", st.Rejected)
	}
	// Draining frees capacity.
	if _, err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, registerSpec(t, "cap-c")); err != nil {
		t.Fatalf("register after drain: %v", err)
	}
}

// TestDrainExactlyOnceUnderConcurrentTicks: with tickers hammering
// every device, a drain must return each device's checkpoint exactly
// once, and each checkpoint's slot must equal the number of ticks that
// device observed as applied — a tick is either in the checkpoint or
// answered ErrUnknownDevice, never lost, never half-applied.
func TestDrainExactlyOnceUnderConcurrentTicks(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 4})
	const devices = 24
	applied := make([]atomic.Int64, devices)
	for d := 0; d < devices; d++ {
		if _, err := m.Register(ctx, registerSpec(t, fmt.Sprintf("drain-%02d", d))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := fmt.Sprintf("drain-%02d", d)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := m.Tick(ctx, TickSpec{DeviceID: id, Reports: []pipeline.SlotReport{{UsedJ: 9, SuppliedJ: 10}}})
				if err != nil {
					if errors.Is(err, ErrUnknownDevice) {
						return // drained out from under us — expected
					}
					t.Errorf("tick %s: %v", id, err)
					return
				}
				applied[d].Add(1)
			}
		}(d)
	}
	time.Sleep(20 * time.Millisecond) // let ticks accumulate
	drained, err := m.Drain(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != devices {
		t.Fatalf("drained %d sessions, want %d", len(drained), devices)
	}
	seen := make(map[string]bool, devices)
	for _, d := range drained {
		if seen[d.DeviceID] {
			t.Fatalf("device %s drained twice", d.DeviceID)
		}
		seen[d.DeviceID] = true
	}
	for d := 0; d < devices; d++ {
		id := fmt.Sprintf("drain-%02d", d)
		if !seen[id] {
			t.Fatalf("device %s missing from drain", id)
		}
	}
	// Exactly-once accounting: the checkpoint includes precisely the
	// ticks whose responses reported success. (A tick racing the drain
	// either landed before it — counted by the worker before stop — or
	// got ErrUnknownDevice and was not counted.)
	for i, d := range drained {
		var idx int
		if _, err := fmt.Sscanf(d.DeviceID, "drain-%02d", &idx); err != nil {
			t.Fatalf("unexpected device id %q", drained[i].DeviceID)
		}
		if want := applied[idx].Load(); int64(d.Slot) != want {
			t.Fatalf("%s: checkpoint slot %d != %d applied ticks", d.DeviceID, d.Slot, want)
		}
	}
	// Post-drain ticks are 404s, and the fleet stays usable.
	if _, err := m.Tick(ctx, TickSpec{DeviceID: "drain-00", Reports: []pipeline.SlotReport{{UsedJ: 1, SuppliedJ: 1}}}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("post-drain tick: %v, want ErrUnknownDevice", err)
	}
	if m.Live() != 0 {
		t.Fatalf("live=%d after drain, want 0", m.Live())
	}
}

// TestDrainReturnsParked: parked (idle-evicted) checkpoints drain too,
// marked Evicted, exactly once.
func TestDrainReturnsParked(t *testing.T) {
	ctx := context.Background()
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	m := newTestManager(t, Config{Partitions: 1, IdleTTL: time.Second, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}})
	if _, err := m.Register(ctx, registerSpec(t, "parked-dev")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, registerSpec(t, "live-dev")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: "parked-dev", Reports: []pipeline.SlotReport{{UsedJ: 9.5, SuppliedJ: 11}}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	clock = clock.Add(time.Hour)
	mu.Unlock()
	// Evict parked-dev but keep live-dev by touching it after the jump.
	if err := m.SweepNow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, registerSpec(t, "live-dev")); err != nil {
		t.Fatal(err)
	}
	drained, err := m.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != 2 {
		t.Fatalf("drained %d, want 2 (one live, one parked)", len(drained))
	}
	var sawParked bool
	for _, d := range drained {
		if d.DeviceID == "parked-dev" {
			sawParked = true
			if !d.Evicted {
				t.Fatal("parked checkpoint not marked evicted")
			}
			if d.Slot != 1 {
				t.Fatalf("parked checkpoint slot %d, want 1", d.Slot)
			}
		}
	}
	if !sawParked {
		t.Fatal("parked checkpoint missing from drain")
	}
}

// TestClosed: after Close every operation fails with ErrClosed, Close
// is idempotent, and the final Close returns remaining checkpoints.
func TestClosed(t *testing.T) {
	ctx := context.Background()
	m, err := New(Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, registerSpec(t, "closing-dev")); err != nil {
		t.Fatal(err)
	}
	out := m.Close()
	if len(out) != 1 || out[0].DeviceID != "closing-dev" {
		t.Fatalf("close returned %d checkpoints, want the one live session", len(out))
	}
	if again := m.Close(); again != nil {
		t.Fatalf("second close returned %d checkpoints, want none", len(again))
	}
	if _, err := m.Register(ctx, registerSpec(t, "late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: "closing-dev", Reports: []pipeline.SlotReport{{UsedJ: 1, SuppliedJ: 1}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("tick after close: %v, want ErrClosed", err)
	}
	if _, err := m.Drain(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("drain after close: %v, want ErrClosed", err)
	}
}

// TestCloseNeverStarted: a manager that never served a request has no
// goroutines; Close must not hang.
func TestCloseNeverStarted(t *testing.T) {
	m, err := New(Config{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close of never-started manager hung")
	}
}

// TestValidation covers the input edges.
func TestValidation(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 1})
	if _, err := New(Config{Partitions: -1}); err == nil {
		t.Error("negative partitions accepted")
	}
	if _, err := New(Config{Partitions: MaxPartitions * 2}); err == nil {
		t.Error("oversized partitions accepted")
	}
	if _, err := New(Config{MaxSessions: -1}); err == nil {
		t.Error("negative session cap accepted")
	}
	if _, err := New(Config{IdleTTL: -time.Second}); err == nil {
		t.Error("negative TTL accepted")
	}
	spec := registerSpec(t, "")
	if _, err := m.Register(ctx, spec); err == nil {
		t.Error("empty device id accepted")
	}
	long := make([]byte, MaxDeviceID+1)
	for i := range long {
		long[i] = 'x'
	}
	spec = registerSpec(t, string(long))
	if _, err := m.Register(ctx, spec); err == nil {
		t.Error("oversized device id accepted")
	}
	bad := registerSpec(t, "bad-scenario")
	bad.Scenario = trace.Scenario{}
	if _, err := m.Register(ctx, bad); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: "x"}); err == nil {
		t.Error("tick with no reports accepted")
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: "x", Reports: []pipeline.SlotReport{{UsedJ: math.NaN(), SuppliedJ: 1}}}); err == nil {
		t.Error("NaN report accepted")
	}
}

// TestPartitionRouting: default partition counts are powers of two and
// the same device always routes to the same partition.
func TestPartitionRouting(t *testing.T) {
	m := newTestManager(t, Config{Partitions: 5}) // rounds up to 8
	if m.Partitions() != 8 {
		t.Fatalf("partitions=%d, want 8", m.Partitions())
	}
	p1 := m.partitionFor("some-device")
	p2 := m.partitionFor("some-device")
	if p1 != p2 {
		t.Fatal("device routing unstable")
	}
	if def := DefaultPartitions(); def < 1 || def > 16 || def&(def-1) != 0 {
		t.Fatalf("DefaultPartitions()=%d, want a power of two in [1,16]", def)
	}
}

// TestParkedCapacity: the per-partition parked table is bounded; the
// oldest parked checkpoint is dropped when full.
func TestParkedCapacity(t *testing.T) {
	ctx := context.Background()
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	m := newTestManager(t, Config{Partitions: 1, IdleTTL: time.Second, ParkedCapacity: 2, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}})
	for i := 0; i < 4; i++ {
		if _, err := m.Register(ctx, registerSpec(t, fmt.Sprintf("park-%d", i))); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		clock = clock.Add(time.Hour)
		mu.Unlock()
		if err := m.SweepNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.SessionsParked != 2 {
		t.Fatalf("parked=%d, want capacity 2", st.SessionsParked)
	}
	if st.ParkedDrops != 2 {
		t.Fatalf("parkedDrops=%d, want 2", st.ParkedDrops)
	}
	if st.Evictions != 4 {
		t.Fatalf("evictions=%d, want 4", st.Evictions)
	}
}

// TestReplanParkedFull: a replan of a parked session that cannot be
// installed leaves the parked checkpoint in place.
func TestReplanParkedFull(t *testing.T) {
	ctx := context.Background()
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	m := newTestManager(t, Config{Partitions: 1, MaxSessions: 1, IdleTTL: time.Minute, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}})
	spec := registerSpec(t, "dev-parked")
	if _, err := m.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	clock = clock.Add(time.Hour)
	mu.Unlock()
	if err := m.SweepNow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(ctx, registerSpec(t, "dev-live")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Replan(ctx, spec.DeviceID, spec.Scenario.Usage, spec.Scenario.Charging); !errors.Is(err, ErrFull) {
		t.Fatalf("replan past MaxSessions: %v, want ErrFull", err)
	}
	if st := m.Stats(); st.SessionsParked != 1 {
		t.Fatalf("parked sessions after a refused replan = %d, want 1", st.SessionsParked)
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: spec.DeviceID, Reports: []pipeline.SlotReport{{UsedJ: 1, SuppliedJ: 1}}}); !errors.Is(err, ErrEvicted) {
		t.Fatalf("tick after a refused replan: %v, want ErrEvicted", err)
	}
}

// TestReplan: a replan keeps everything the registration said except
// the forecast grids, and starts from the session's charge; a parked
// session's checkpoint is consumed and only its charge carried over;
// a device with no session fails with ErrUnknownDevice.
func TestReplan(t *testing.T) {
	ctx := context.Background()
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	m := newTestManager(t, Config{Partitions: 2, IdleTTL: time.Minute, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}})
	spec := registerSpec(t, "dev-replan")
	pcfg, err := (&scenario.Hardware{MaxProcessors: 5, FrequenciesHz: []float64{20e6, 80e6}}).WithDefaults().ParamsConfig()
	if err != nil {
		t.Fatal(err)
	}
	spec.Params = pcfg
	spec.Policy = dpm.Even
	spec.Scenario.Weight = spec.Scenario.Usage.Scale(1)
	spec.Scenario.CapacityMin = 0.2 * trace.Tau
	spec.Scenario.CapacityMax = 3 * trace.Tau
	spec.Scenario.InitialCharge = 1.5 * trace.Tau
	if _, err := m.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}
	reports := []pipeline.SlotReport{{UsedJ: 9.5, SuppliedJ: 11}, {UsedJ: 3, SuppliedJ: 0}}
	ticked, err := m.Tick(ctx, TickSpec{DeviceID: spec.DeviceID, Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	usage, charging := spec.Scenario.Usage.Scale(1.2), spec.Scenario.Charging.Scale(0.9)
	got, err := m.Replan(ctx, spec.DeviceID, usage, charging)
	if err != nil {
		t.Fatal(err)
	}
	want := spec
	want.DeviceID = "dev-reference"
	want.Scenario.Usage, want.Scenario.Charging = usage, charging
	want.Scenario.InitialCharge = ticked.ChargeJ
	ref, err := m.Register(ctx, want)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Replaced || got.Resumed || got.Slot != 0 || got.ChargeJ != ticked.ChargeJ {
		t.Fatalf("replan = %+v, want a fresh session replacing the live one at charge %g", got, ticked.ChargeJ)
	}
	got.Replaced = false
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("replan = %+v, want %+v", got, ref)
	}
	p := m.partitionFor(spec.DeviceID)
	p.mu.Lock()
	kept := p.sessions[spec.DeviceID].spec
	p.mu.Unlock()
	want.DeviceID = spec.DeviceID
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("replanned session keeps %+v, want %+v", kept, want)
	}
	want.DeviceID = "dev-reference"
	for i, rep := range reports {
		a, err := m.Tick(ctx, TickSpec{DeviceID: spec.DeviceID, Reports: []pipeline.SlotReport{rep}, IncludeState: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Tick(ctx, TickSpec{DeviceID: want.DeviceID, Reports: []pipeline.SlotReport{rep}, IncludeState: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("tick %d after replan = %+v, want %+v", i, a, b)
		}
	}

	// Idle-evicted mid-period: the replan builds a fresh session from
	// the forecasts at the parked charge, and the parked checkpoint,
	// with its old plan and slot, is gone.
	parked, err := m.Tick(ctx, TickSpec{DeviceID: spec.DeviceID, Reports: reports[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if parked.Slot == 0 {
		t.Fatal("the session parks at slot 0; a resumed slot would not show")
	}
	mu.Lock()
	clock = clock.Add(time.Hour)
	mu.Unlock()
	if err := m.SweepNow(ctx); err != nil {
		t.Fatal(err)
	}
	got, err = m.Replan(ctx, spec.DeviceID, usage, charging)
	if err != nil {
		t.Fatal(err)
	}
	want.DeviceID = "dev-reference-parked"
	want.Scenario.InitialCharge = parked.ChargeJ
	if ref, err = m.Register(ctx, want); err != nil {
		t.Fatal(err)
	}
	if got.Resumed || got.Replaced || !reflect.DeepEqual(got, ref) {
		t.Fatalf("replan of a parked session = %+v, want a fresh %+v", got, ref)
	}
	p.mu.Lock()
	_, stillParked := p.parked[spec.DeviceID]
	p.mu.Unlock()
	if stillParked {
		t.Fatal("the replan left the parked checkpoint behind")
	}

	if _, err := m.Replan(ctx, "ghost", usage, charging); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("replan of an unknown device: %v, want ErrUnknownDevice", err)
	}
	m.Close()
	if _, err := m.Replan(ctx, spec.DeviceID, usage, charging); !errors.Is(err, ErrClosed) {
		t.Fatalf("replan after close: %v, want ErrClosed", err)
	}
}

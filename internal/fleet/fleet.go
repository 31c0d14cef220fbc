// Package fleet is dpmd's stateful session layer: the paper's §4.3
// runtime manager (Figure 1) is a *long-lived* control loop, and this
// package makes it one server-side. Where POST /v1/replan round-trips
// a full checkpoint per call — every device paying
// serialize/validate/deserialize on every τ tick — a fleet session
// owns a live dpm.Manager: a device registers once (scenario plus
// optional checkpoint) and thereafter streams lightweight telemetry
// ticks, getting delta replans back with no checkpoint on the wire.
//
// Session state is sharded across lock-owned partitions routed by
// the FNV-1a hash of the device id (internal/route, the routing
// plancache.Sharded uses). Each partition has one mutex and a single
// writer at a time: every operation on a session runs inline in the
// caller's goroutine under its partition's lock, so sessions need no
// per-session locks and a tick costs one uncontended lock plus a few
// hundred nanoseconds of Algorithm 3; TickBatch ticks many devices
// taking each partition's lock once. Idle sessions are evicted on a
// TTL by one manager-owned sweeper goroutine, with their checkpoint
// parked for handback — a re-register resumes exactly where the
// evicted session stopped — and Drain removes every live session at
// once, returning each final checkpoint exactly once. Close stops the
// sweeper and hands back whatever sessions remained.
//
// Semantics are pinned to the stateless path: a session fed N slot
// reports yields byte-identical replan output to N /v1/replan calls
// round-tripping checkpoints (the parity tests in this package and
// internal/server enforce it).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/route"
	"dpm/internal/scenario"
	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// Sentinel errors callers map onto transport statuses.
var (
	// ErrUnknownDevice means no session (live or parked) exists for
	// the device id — the device must register first. → 404.
	ErrUnknownDevice = errors.New("fleet: unknown device; register first")
	// ErrEvicted means the session was idle-evicted; its checkpoint is
	// parked and a re-register resumes it. → 410.
	ErrEvicted = errors.New("fleet: session evicted for idleness; re-register to resume from the parked checkpoint")
	// ErrFull means the session cap is reached and the device has no
	// existing session to replace. → 503 + Retry-After.
	ErrFull = errors.New("fleet: session capacity reached")
	// ErrClosed means the manager has shut down. → 503.
	ErrClosed = errors.New("fleet: manager closed")
)

// BadCheckpointError wraps a checkpoint the manager refused to
// restore — corrupt or mismatched state is a client error, not a
// server failure.
type BadCheckpointError struct{ Err error }

func (e *BadCheckpointError) Error() string {
	return fmt.Sprintf("fleet: checkpoint rejected: %v", e.Err)
}
func (e *BadCheckpointError) Unwrap() error { return e.Err }

// MaxPartitions caps the partition count, mirroring
// plancache.MaxShards.
const MaxPartitions = 256

// DefaultPartitions mirrors plancache.DefaultShards: one partition
// per runnable goroutine removes cross-device contention; the cap
// keeps the fan-in manageable on large hosts. Session routing stays
// stable only within one process lifetime, so the count is free to
// vary with GOMAXPROCS.
func DefaultPartitions() int { return route.DefaultCount(16) }

// Config tunes one fleet manager.
type Config struct {
	// Partitions is the number of session partitions, rounded up to a
	// power of two. 0 means DefaultPartitions().
	Partitions int
	// MaxSessions caps live sessions across all partitions; a register
	// beyond the cap (for a device with no existing session) fails
	// with ErrFull. 0 means unlimited.
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long, parking their
	// checkpoints for handback on re-register. 0 disables eviction.
	IdleTTL time.Duration
	// ParkedCapacity bounds parked (evicted) checkpoints per
	// partition; the oldest parked entry is dropped when full.
	// 0 means 1024 per partition.
	ParkedCapacity int
	// SweepInterval is how often the sweeper scans the partitions for
	// idle sessions; 0 means max(IdleTTL/4, 1s). Ignored when IdleTTL is 0.
	SweepInterval time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// counters is the manager's monotonic activity record (atomics; read
// by Stats from any goroutine).
type counters struct {
	registered, resumed, replaced, rejected     atomic.Uint64
	ticks, slotReports, replans, replays        atomic.Uint64
	evictions, parkedDrops, drains, drainedSess atomic.Uint64
}

// Stats is a snapshot of the manager's counters and gauges.
type Stats struct {
	// SessionsLive and SessionsParked are current gauges.
	SessionsLive, SessionsParked int
	// Registered counts successful register calls; Resumed those that
	// restored a checkpoint (explicit or parked); Replaced those that
	// displaced an existing live session; Rejected those refused at
	// the session cap.
	Registered, Resumed, Replaced, Rejected uint64
	// Ticks counts tick operations, SlotReports the individual slot
	// reports applied, Replans the reports whose deviation triggered
	// an Algorithm 3 redistribution, and Replays duplicate-seq ticks
	// answered from session memory without re-applying.
	Ticks, SlotReports, Replans, Replays uint64
	// Evictions counts idle-TTL evictions, ParkedDrops parked
	// checkpoints displaced by capacity, Drains drain operations and
	// DrainedSessions the sessions they removed.
	Evictions, ParkedDrops, Drains, DrainedSessions uint64
}

// PartitionStats is one partition's gauges.
type PartitionStats struct {
	// Sessions and Parked are the partition's current session and
	// parked-checkpoint counts.
	Sessions, Parked int
	// Depth is the number of callers waiting for the partition's
	// lock right now.
	Depth int
}

// Manager owns the fleet's live sessions.
type Manager struct {
	cfg   Config
	parts []*partition
	mask  uint64
	now   func() time.Time

	live atomic.Int64
	ctr  counters

	mu         sync.Mutex // orders the sweeper's start against Close
	sweeping   bool
	startSweep sync.Once

	stop      chan struct{}
	sweepDone chan struct{}
	closed    atomic.Bool
}

// New validates the configuration and returns a manager. The idle
// sweeper (IdleTTL > 0) starts on the first Register, so an unused
// fleet layer costs no goroutine.
func New(cfg Config) (*Manager, error) {
	if cfg.Partitions < 0 || cfg.Partitions > MaxPartitions {
		return nil, fmt.Errorf("fleet: partition count %d outside [0, %d]", cfg.Partitions, MaxPartitions)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = DefaultPartitions()
	}
	n := route.Pow2(cfg.Partitions)
	cfg.Partitions = n
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("fleet: negative session cap %d", cfg.MaxSessions)
	}
	if cfg.IdleTTL < 0 {
		return nil, fmt.Errorf("fleet: negative idle TTL %s", cfg.IdleTTL)
	}
	if cfg.ParkedCapacity == 0 {
		cfg.ParkedCapacity = 1024
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.IdleTTL / 4
		if cfg.SweepInterval < time.Second {
			cfg.SweepInterval = time.Second
		}
	}
	m := &Manager{
		cfg:       cfg,
		mask:      uint64(n - 1),
		now:       cfg.Now,
		stop:      make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	if m.now == nil {
		m.now = time.Now
	}
	m.parts = make([]*partition, n)
	for i := range m.parts {
		m.parts[i] = &partition{
			m:        m,
			sessions: make(map[string]*session),
			parked:   make(map[string]*parkedState),
		}
	}
	return m, nil
}

// Partitions returns the (power-of-two) partition count.
func (m *Manager) Partitions() int { return len(m.parts) }

// Live returns the current live-session count.
func (m *Manager) Live() int { return int(m.live.Load()) }

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		SessionsLive:    int(m.live.Load()),
		SessionsParked:  int(m.parkedTotal()),
		Registered:      m.ctr.registered.Load(),
		Resumed:         m.ctr.resumed.Load(),
		Replaced:        m.ctr.replaced.Load(),
		Rejected:        m.ctr.rejected.Load(),
		Ticks:           m.ctr.ticks.Load(),
		SlotReports:     m.ctr.slotReports.Load(),
		Replans:         m.ctr.replans.Load(),
		Replays:         m.ctr.replays.Load(),
		Evictions:       m.ctr.evictions.Load(),
		ParkedDrops:     m.ctr.parkedDrops.Load(),
		Drains:          m.ctr.drains.Load(),
		DrainedSessions: m.ctr.drainedSess.Load(),
	}
}

// PartitionStats snapshots each partition's gauges, in partition
// order.
func (m *Manager) PartitionStats() []PartitionStats {
	out := make([]PartitionStats, len(m.parts))
	for i, p := range m.parts {
		out[i] = PartitionStats{
			Sessions: int(p.nSessions.Load()),
			Parked:   int(p.nParked.Load()),
			Depth:    int(p.waiting.Load()),
		}
	}
	return out
}

// partitionFor routes a device id to its partition by FNV-1a hash —
// the same routing plancache.Sharded uses for cache keys.
func (m *Manager) partitionFor(deviceID string) *partition {
	return m.parts[route.Hash(deviceID)&m.mask]
}

// startSweeper launches the idle sweeper on the first Register when
// IdleTTL is set — only a registered session can go idle. Lazy start
// keeps an unused fleet layer goroutine-free (most servers,
// benchmarks and tests never touch it); after the first call it costs
// one atomic load.
func (m *Manager) startSweeper() {
	if m.cfg.IdleTTL <= 0 {
		return
	}
	m.startSweep.Do(func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.closed.Load() {
			m.sweeping = true
			go m.sweepLoop()
		}
	})
}

// sweepLoop evicts idle sessions every SweepInterval until Close.
func (m *Manager) sweepLoop() {
	defer close(m.sweepDone)
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.SweepNow(context.Background()) //nolint:errcheck // ErrClosed races stop
		case <-m.stop:
			return
		}
	}
}

// session is one device's live manager. All fields are guarded by the
// partition lock.
type session struct {
	mgr        *dpm.Manager
	lastActive time.Time
	// spec is the registration the session was built from, State
	// cleared; Replan rebuilds the session from it.
	spec RegisterSpec

	// lastSeq and lastResult memoize the most recent deduplicated
	// tick, so a retry of a tick whose response was lost on the wire
	// replays the answer instead of double-applying the slot reports.
	lastSeq    uint64
	lastResult TickResult
}

// parkedState is an evicted session's handed-back checkpoint.
type parkedState struct {
	state    dpm.State
	slot     int
	charge   float64
	parkedAt time.Time
	spec     RegisterSpec
}

// partition is one lock-owned shard of the session table.
type partition struct {
	m  *Manager
	mu sync.Mutex

	// Guarded by mu.
	sessions    map[string]*session
	parked      map[string]*parkedState
	parkedOrder []string

	// Gauges mirrored for lock-free Stats reads; waiting counts the
	// callers blocked on mu (dpmd_fleet_partition_depth).
	nSessions atomic.Int64
	nParked   atomic.Int64
	waiting   atomic.Int64
}

// lock acquires the partition and reports false, unlocked again, once
// the manager is closed: Close drains each partition under its lock
// after setting closed, so an operation that gets the lock later must
// not touch the handed-back state.
func (p *partition) lock() bool {
	if !p.mu.TryLock() {
		p.waiting.Add(1)
		p.mu.Lock()
		p.waiting.Add(-1)
	}
	if p.m.closed.Load() {
		p.mu.Unlock()
		return false
	}
	return true
}

// sweepIdle evicts sessions idle past the TTL, parking their
// checkpoints.
func (p *partition) sweepIdle(now time.Time) {
	ttl := p.m.cfg.IdleTTL
	if ttl <= 0 {
		return
	}
	for id, s := range p.sessions {
		if now.Sub(s.lastActive) >= ttl {
			p.park(id, s, now)
		}
	}
}

// park moves one session's checkpoint into the parked table and
// removes the live session.
func (p *partition) park(id string, s *session, now time.Time) {
	if _, exists := p.parked[id]; !exists {
		for len(p.parked) >= p.parkedCap() {
			oldest := p.parkedOrder[0]
			p.parkedOrder = p.parkedOrder[1:]
			if _, ok := p.parked[oldest]; ok {
				delete(p.parked, oldest)
				p.m.ctr.parkedDrops.Add(1)
			}
		}
		p.parkedOrder = append(p.parkedOrder, id)
	}
	p.parked[id] = &parkedState{
		state:    s.mgr.Checkpoint(),
		slot:     s.mgr.Slot(),
		charge:   s.mgr.Charge(),
		parkedAt: now,
		spec:     s.spec,
	}
	delete(p.sessions, id)
	p.m.live.Add(-1)
	p.nSessions.Store(int64(len(p.sessions)))
	p.nParked.Store(int64(len(p.parked)))
	p.m.ctr.evictions.Add(1)
}

// parkedCap is this partition's share of the parked capacity.
func (p *partition) parkedCap() int {
	per := p.m.cfg.ParkedCapacity / len(p.m.parts)
	if per < 1 {
		per = 1
	}
	return per
}

// unpark removes and returns a parked checkpoint.
func (p *partition) unpark(id string) (*parkedState, bool) {
	ps, ok := p.parked[id]
	if !ok {
		return nil, false
	}
	delete(p.parked, id)
	// parkedOrder may still name id; the capacity loop in park
	// tolerates stale entries.
	p.nParked.Store(int64(len(p.parked)))
	return ps, true
}

// parkedTotal sums the per-partition parked gauges.
func (m *Manager) parkedTotal() int64 {
	var n int64
	for _, p := range m.parts {
		n += p.nParked.Load()
	}
	return n
}

// RegisterSpec asks for a session.
type RegisterSpec struct {
	// DeviceID identifies the device; it is the session key.
	DeviceID string
	// Scenario is the device's planning environment (validated).
	Scenario trace.Scenario
	// Params is the Algorithm 2 hardware configuration.
	Params params.Config
	// Policy selects the Algorithm 3 redistribution flavor.
	Policy dpm.RedistributePolicy
	// Planner names the strategy backend the session's initial plan
	// comes from ("" = the paper's Algorithm 1); a restored
	// checkpoint's plan takes precedence.
	Planner string
	// State, when non-nil, is a checkpoint to resume from — a device
	// migrating in from the stateless /v1/replan flow, or re-joining
	// after a drain handed its checkpoint back.
	State *dpm.State
}

// RegisterResult reports the session's post-register state.
type RegisterResult struct {
	// Slot, ChargeJ and Plan mirror the session manager.
	Slot    int
	ChargeJ float64
	Plan    []float64
	// Resumed reports that a checkpoint (explicit or parked) was
	// restored; Replaced that an existing live session was displaced.
	Resumed  bool
	Replaced bool
}

// MaxDeviceID bounds device-id length.
const MaxDeviceID = 256

// ValidateDeviceID applies the device-id bounds.
func ValidateDeviceID(id string) error {
	if id == "" {
		return scenario.Errorf("deviceId is required")
	}
	if len(id) > MaxDeviceID {
		return scenario.Errorf("deviceId length %d exceeds %d", len(id), MaxDeviceID)
	}
	return nil
}

// Register creates (or replaces) the device's session. The manager is
// constructed — Algorithm 1 plus the memoized Algorithm 2 table —
// before the partition lock is taken; only the install runs under it.
// An explicit checkpoint that the manager rejects fails with
// *BadCheckpointError before any session state changes. With no
// explicit checkpoint, a parked (evicted) checkpoint for the device is
// restored and consumed — the eviction handback path.
func (m *Manager) Register(ctx context.Context, spec RegisterSpec) (RegisterResult, error) {
	return m.register(ctx, spec, false)
}

// register is Register; fresh discards a parked checkpoint instead of
// restoring it, once the install is sure to succeed.
func (m *Manager) register(ctx context.Context, spec RegisterSpec, fresh bool) (RegisterResult, error) {
	if m.closed.Load() {
		return RegisterResult{}, ErrClosed
	}
	if err := ValidateDeviceID(spec.DeviceID); err != nil {
		return RegisterResult{}, err
	}
	if err := scenario.Validate(spec.Scenario); err != nil {
		return RegisterResult{}, err
	}
	_, span := obs.StartSpan(ctx, "fleet.register")
	defer span.End()
	mgr, err := pipeline.NewManager(ctx, spec.Planner, spec.Scenario, spec.Params, spec.Policy)
	if err != nil {
		return RegisterResult{}, err
	}
	if spec.State != nil {
		if err := mgr.Restore(*spec.State); err != nil {
			return RegisterResult{}, &BadCheckpointError{Err: err}
		}
	}
	// Sessions live for hours; the Algorithm 1 iteration history is
	// presentation-only and would multiply per-session memory at
	// fleet scale.
	mgr.ReleaseInitial()

	m.startSweeper()
	p := m.partitionFor(spec.DeviceID)
	if !p.lock() {
		return RegisterResult{}, ErrClosed
	}
	defer p.mu.Unlock()
	_, replaced := p.sessions[spec.DeviceID]
	if !replaced {
		if n, max := m.live.Add(1), int64(m.cfg.MaxSessions); max > 0 && n > max {
			m.live.Add(-1)
			m.ctr.rejected.Add(1)
			return RegisterResult{}, ErrFull
		}
	}
	resumed := spec.State != nil
	if spec.State == nil && !fresh {
		if ps, ok := p.unpark(spec.DeviceID); ok {
			// The parked checkpoint came from a manager with the same
			// session key; a restore failure means the device
			// re-registered with a different scenario — start fresh.
			if err := mgr.Restore(ps.state); err == nil {
				resumed = true
			}
		}
	} else {
		// An explicit checkpoint, or a fresh replan, supersedes any
		// parked one.
		p.unpark(spec.DeviceID)
	}
	spec.State = nil
	p.sessions[spec.DeviceID] = &session{
		mgr:        mgr,
		lastActive: m.now(),
		spec:       spec,
	}
	p.nSessions.Store(int64(len(p.sessions)))
	m.ctr.registered.Add(1)
	if resumed {
		m.ctr.resumed.Add(1)
	}
	if replaced {
		m.ctr.replaced.Add(1)
	}
	span.SetAttr("resumed", resumed)
	return RegisterResult{
		Slot:     mgr.Slot(),
		ChargeJ:  mgr.Charge(),
		Plan:     mgr.PlanSnapshot(),
		Resumed:  resumed,
		Replaced: replaced,
	}, nil
}

// Replan rebuilds the device's session around new usage and charging
// forecasts — the ingestion loop's divergence replan. Everything else
// comes from the device's last registration: hardware, policy,
// planner, battery band and weight. The session's charge, live or
// parked, carries over as the initial charge, clamped to the band.
// Either way the device gets a fresh session planned from the
// forecasts: a live session is displaced, and an idle-evicted one's
// parked checkpoint is consumed, not restored, so its old plan and
// mid-period slot do not outlive the replan. If the install fails
// (ErrFull, ErrClosed) the parked checkpoint stays. A device with
// neither session fails with ErrUnknownDevice.
func (m *Manager) Replan(ctx context.Context, deviceID string, usage, charging *schedule.Grid) (RegisterResult, error) {
	p := m.partitionFor(deviceID)
	if !p.lock() {
		return RegisterResult{}, ErrClosed
	}
	var spec RegisterSpec
	var charge float64
	if s, ok := p.sessions[deviceID]; ok {
		spec, charge = s.spec, s.mgr.Charge()
	} else if ps, ok := p.parked[deviceID]; ok {
		spec, charge = ps.spec, ps.charge
	} else {
		p.mu.Unlock()
		return RegisterResult{}, ErrUnknownDevice
	}
	p.mu.Unlock()
	sc := &spec.Scenario
	sc.Usage, sc.Charging = usage, charging
	sc.InitialCharge = math.Min(math.Max(charge, sc.CapacityMin), sc.CapacityMax)
	return m.register(ctx, spec, true)
}

// TickSpec streams one device's completed-slot telemetry.
type TickSpec struct {
	// DeviceID names the session.
	DeviceID string
	// Seq, when non-zero, deduplicates retries: a tick repeating the
	// session's last seq is answered from memory without re-applying
	// its reports. Clients retrying ticks over a lossy wire must set
	// it.
	Seq uint64
	// Reports are the completed slots, oldest first (same bounds as
	// /v1/replan).
	Reports []pipeline.SlotReport
	// IncludeState returns the full checkpoint with the result — the
	// escape hatch back to the stateless flow.
	IncludeState bool
}

// TickResult is the delta replan a tick returns.
type TickResult struct {
	// Slot, ChargeJ and Plan mirror the session manager after the
	// reports are applied.
	Slot    int
	ChargeJ float64
	Plan    []float64
	// Replans counts the reports whose deviation triggered an
	// Algorithm 3 redistribution.
	Replans int
	// Replayed reports a duplicate-seq tick answered from session
	// memory.
	Replayed bool
	// State is the checkpoint, only when requested.
	State *dpm.State
}

// Tick applies the reports under the session's partition lock and
// returns the updated plan. Unknown devices fail with
// ErrUnknownDevice; idle-evicted ones with ErrEvicted (their
// checkpoint is parked and a re-register resumes it).
func (m *Manager) Tick(ctx context.Context, spec TickSpec) (TickResult, error) {
	if m.closed.Load() {
		return TickResult{}, ErrClosed
	}
	if err := validateTick(&spec); err != nil {
		return TickResult{}, err
	}
	ctx, span := obs.StartSpan(ctx, "fleet.tick")
	defer span.End()
	span.SetAttr("slots", len(spec.Reports))
	p := m.partitionFor(spec.DeviceID)
	if !p.lock() {
		return TickResult{}, ErrClosed
	}
	defer p.mu.Unlock()
	var res TickResult
	err := p.tickLocked(ctx, &spec, m.now(), &res)
	return res, err
}

// TickBatch applies every spec as a sequence of Tick calls would, in
// one pass: items are grouped by partition, stably, so a device's
// items keep their order (a repeated seq replays), each partition's
// lock is taken once, the clock is read once, and the whole batch
// records one fleet.tick span. errs[i] receives item i's error, nil on
// success; when results is non-nil, results[i] receives its result.
// errs, and results when given, must be as long as specs. With results
// nil a tick without a seq builds no result at all, so a batch of such
// ticks allocates nothing per item.
func (m *Manager) TickBatch(ctx context.Context, specs []TickSpec, results []TickResult, errs []error) {
	if m.closed.Load() {
		for i := range specs {
			errs[i] = ErrClosed
		}
		return
	}
	_, span := obs.StartSpan(ctx, "fleet.tick")
	defer span.End()
	span.SetAttr("items", len(specs))
	g := groupPool.Get().(*grouping)
	defer groupPool.Put(g)
	g.group(m, specs, errs)
	now := m.now()
	lo := 0
	for pi, p := range m.parts {
		hi := int(g.end[pi])
		items := g.order[lo:hi]
		lo = hi
		if len(items) == 0 {
			continue
		}
		if !p.lock() {
			for _, i := range items {
				errs[i] = ErrClosed
			}
			continue
		}
		for _, i := range items {
			var out *TickResult
			if results != nil {
				out = &results[i]
			}
			// No per-item span: the batch is one fleet.tick observation.
			errs[i] = p.tickLocked(context.Background(), &specs[i], now, out)
		}
		p.mu.Unlock()
	}
}

// validateTick applies a tick's input bounds.
func validateTick(spec *TickSpec) error {
	if err := ValidateDeviceID(spec.DeviceID); err != nil {
		return err
	}
	return pipeline.ValidateReports(spec.Reports)
}

// grouping is TickBatch's reusable partition index: order lists the
// valid items partition by partition, in input order within each, and
// end[p] is where partition p's run in order ends.
type grouping struct {
	part  []int32
	order []int32
	end   []int32
}

var groupPool = sync.Pool{New: func() any { return new(grouping) }}

// group validates every spec, records failures in errs, and counting-
// sorts the valid items by partition.
func (g *grouping) group(m *Manager, specs []TickSpec, errs []error) {
	n, np := len(specs), len(m.parts)
	g.part = slices.Grow(g.part[:0], n)[:n]
	g.order = slices.Grow(g.order[:0], n)[:0]
	g.end = slices.Grow(g.end[:0], np)[:np]
	clear(g.end)
	for i := range specs {
		errs[i] = validateTick(&specs[i])
		if errs[i] != nil {
			g.part[i] = -1
			continue
		}
		pi := int32(route.Hash(specs[i].DeviceID) & m.mask)
		g.part[i] = pi
		g.end[pi]++
	}
	// end[p] becomes the start of p's run; placing each item advances
	// it, leaving end[p] at the run's end.
	start := int32(0)
	for pi, c := range g.end {
		g.end[pi] = start
		start += c
	}
	g.order = g.order[:start]
	for i, pi := range g.part {
		if pi >= 0 {
			g.order[g.end[pi]] = int32(i)
			g.end[pi]++
		}
	}
}

// tickLocked is the one per-item tick body Tick and TickBatch share:
// session lookup, seq dedup, the Algorithm 3 loop and the counters.
// The caller holds p's lock and has validated spec. ctx carries the
// caller's fleet.tick span, under which the reports' fleet.replan span
// opens. out, when non-nil, receives the result; a seq tick builds its
// result regardless, since the session memoizes it for replays.
func (p *partition) tickLocked(ctx context.Context, spec *TickSpec, now time.Time, out *TickResult) error {
	m := p.m
	s, ok := p.sessions[spec.DeviceID]
	if !ok {
		if _, parked := p.parked[spec.DeviceID]; parked {
			return ErrEvicted
		}
		return ErrUnknownDevice
	}
	s.lastActive = now
	if spec.Seq != 0 && spec.Seq == s.lastSeq {
		m.ctr.replays.Add(1)
		if out != nil {
			*out = s.lastResult
			out.Replayed = true
			if !spec.IncludeState {
				out.State = nil
			}
		}
		return nil
	}
	_, rspan := obs.StartSpan(ctx, "fleet.replan")
	replans := 0
	for _, rep := range spec.Reports {
		if s.mgr.EndSlotReplan(rep.UsedJ, rep.SuppliedJ) {
			replans++
		}
	}
	rspan.SetAttr("replans", replans)
	rspan.End()
	m.ctr.ticks.Add(1)
	m.ctr.slotReports.Add(uint64(len(spec.Reports)))
	m.ctr.replans.Add(uint64(replans))
	if out == nil && spec.Seq == 0 {
		return nil
	}
	res := TickResult{
		Slot:    s.mgr.Slot(),
		ChargeJ: s.mgr.Charge(),
		Plan:    s.mgr.PlanSnapshot(),
		Replans: replans,
	}
	if spec.IncludeState || spec.Seq != 0 {
		st := s.mgr.Checkpoint()
		res.State = &st
	}
	if spec.Seq != 0 {
		s.lastSeq = spec.Seq
		s.lastResult = res
	}
	if out != nil {
		if !spec.IncludeState {
			res.State = nil
		}
		*out = res
	}
	return nil
}

// Drained is one removed session's final checkpoint.
type Drained struct {
	// DeviceID names the session.
	DeviceID string
	// Slot and ChargeJ summarize where it stopped.
	Slot    int
	ChargeJ float64
	// State is the full checkpoint.
	State dpm.State
	// Evicted marks checkpoints recovered from the parked (idle-
	// evicted) table rather than a live session.
	Evicted bool
}

// Drain removes every session — live and parked — and returns each
// final checkpoint exactly once, sorted by device id. Each
// partition's removal is atomic under its lock: a concurrent tick is
// either applied before the drain (and included in the checkpoint) or
// answered ErrUnknownDevice after it. The manager stays usable;
// devices may re-register. A Drain racing Close returns what it
// removed before Close reached each partition; Close returns the
// rest.
func (m *Manager) Drain(ctx context.Context) ([]Drained, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	_, span := obs.StartSpan(ctx, "fleet.drain")
	defer span.End()
	var all []Drained
	for _, p := range m.parts {
		if p.lock() {
			all = append(all, p.drainLocked()...)
			p.mu.Unlock()
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].DeviceID < all[j].DeviceID })
	m.ctr.drains.Add(1)
	m.ctr.drainedSess.Add(uint64(len(all)))
	span.SetAttr("sessions", len(all))
	return all, nil
}

// drainLocked removes and checkpoints every session and parked entry
// in one partition. Runs under the partition lock.
func (p *partition) drainLocked() []Drained {
	out := make([]Drained, 0, len(p.sessions)+len(p.parked))
	for id, s := range p.sessions {
		out = append(out, Drained{
			DeviceID: id,
			Slot:     s.mgr.Slot(),
			ChargeJ:  s.mgr.Charge(),
			State:    s.mgr.Checkpoint(),
		})
		delete(p.sessions, id)
		p.m.live.Add(-1)
	}
	for id, ps := range p.parked {
		out = append(out, Drained{
			DeviceID: id,
			Slot:     ps.slot,
			ChargeJ:  ps.charge,
			State:    ps.state,
			Evicted:  true,
		})
		delete(p.parked, id)
	}
	p.parkedOrder = p.parkedOrder[:0]
	p.nSessions.Store(0)
	p.nParked.Store(0)
	return out
}

// SweepNow forces an idle sweep on every partition — deterministic
// eviction for tests and operational tooling.
func (m *Manager) SweepNow(ctx context.Context) error {
	if m.closed.Load() {
		return ErrClosed
	}
	now := m.now()
	for _, p := range m.parts {
		if !p.lock() {
			return ErrClosed
		}
		p.sweepIdle(now)
		p.mu.Unlock()
	}
	return nil
}

// Close stops the idle sweeper and returns the final checkpoints of
// whatever sessions remained — the shutdown drain. It is idempotent;
// after Close every operation fails with ErrClosed. Callers that want
// the checkpoints on an orderly shutdown should Drain first (over
// HTTP: POST /v1/fleet/drain during the drain-grace window), since
// Close's return value has nowhere to go once the listener is down.
func (m *Manager) Close() []Drained {
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return nil
	}
	m.closed.Store(true)
	sweeping := m.sweeping
	m.mu.Unlock()

	close(m.stop)
	if sweeping {
		<-m.sweepDone
	}
	// closed is set, so every operation that takes a partition lock
	// after this drain backs out with ErrClosed; one that held the
	// lock first has finished and its effect is in the checkpoint.
	var out []Drained
	for _, p := range m.parts {
		p.mu.Lock()
		out = append(out, p.drainLocked()...)
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

package dpm

import (
	"context"
	"fmt"

	"dpm/internal/battery"
	"dpm/internal/params"
	"dpm/internal/schedule"
)

// BatteryModel selects the intra-slot flow semantics of the battery.
type BatteryModel int

const (
	// NetFlow models supply and load as simultaneous continuous
	// flows: only the net charges or discharges the battery. This
	// is the physical regime and the default.
	NetFlow BatteryModel = iota
	// Sequential applies a whole slot's supply before the whole
	// slot's draw — the τ-granular discretization the paper's own
	// simulation exhibits (its Table 1 magnitudes are reproduced
	// almost exactly under this model).
	Sequential
)

// String names the model.
func (m BatteryModel) String() string {
	switch m {
	case NetFlow:
		return "net-flow"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("BatteryModel(%d)", int(m))
	}
}

// Step advances a battery under the chosen model and returns the
// energy delivered to the load.
func (m BatteryModel) Step(b *battery.Battery, supplyPower, loadPower, dt float64) float64 {
	if m == Sequential {
		return b.Step(supplyPower, loadPower, dt)
	}
	return b.StepNet(supplyPower, loadPower, dt)
}

// SimConfig describes a closed-loop run of the manager against a
// battery: the manager plans with its *expected* schedules while the
// environment delivers the *actual* ones, exactly the mismatch §4.3
// exists to absorb.
type SimConfig struct {
	// Battery selects the intra-slot battery semantics.
	Battery BatteryModel
	// Manager is the manager configuration (expected schedules).
	Manager Config
	// ActualCharging is what the source really delivers; nil means
	// it matches the expectation.
	ActualCharging *schedule.Grid
	// Periods is how many periods to simulate (the paper's Tables 3
	// and 5 cover two).
	Periods int
	// SyncCharge, when set, copies the real battery charge into the
	// manager after every slot, mimicking the PAMA power-measurement
	// board. Without it the manager trusts its own bookkeeping.
	SyncCharge bool
	// OmitPlanSnapshots leaves each SlotRecord's Plan field nil
	// instead of copying the full per-period plan every slot. The
	// snapshot exists for the paper's Tables 3/5; callers that only
	// consume the scalar columns (the service, batch sweeps) skip the
	// per-slot clone.
	OmitPlanSnapshots bool
}

// SlotRecord is one row of the paper's Tables 3/5.
type SlotRecord struct {
	// Time is the slot's start time in seconds.
	Time float64
	// Planned is Pinit(t): the plan's power for this slot at its
	// start, in watts.
	Planned float64
	// Point is the operating point Algorithm 2 selected.
	Point params.OperatingPoint
	// UsedPower is the average power actually drawn during the slot
	// (operating point plus switching overhead), in watts.
	UsedPower float64
	// SuppliedPower is the average charging power actually
	// delivered, in watts.
	SuppliedPower float64
	// Charge is the battery charge at the end of the slot in
	// joules.
	Charge float64
	// Plan is the full per-period plan snapshot after this slot's
	// Algorithm 3 update — the Pinit(0..11) columns.
	Plan []float64
}

// SimResult is the outcome of Simulate.
type SimResult struct {
	// Records holds one entry per simulated slot.
	Records []SlotRecord
	// Battery is the final battery accounting (wasted and
	// undersupplied energy are the paper's Table 1 metrics).
	Battery battery.Snapshot
	// PerfSeconds integrates delivered performance over time: the
	// chosen point's Perf × τ, scaled by the fraction of the
	// requested energy the battery could actually deliver.
	PerfSeconds float64
	// Switches counts operating-point changes.
	Switches int
}

// Simulate runs the manager closed-loop for the configured number of
// periods and returns the per-slot trace plus final accounting.
func Simulate(cfg SimConfig) (*SimResult, error) {
	return SimulateContext(context.Background(), cfg)
}

// SimulateContext is Simulate with cooperative cancellation: ctx is
// polled once per simulated slot and the run aborts with ctx.Err()
// when it is cancelled. Each slot's Algorithm 3 update and plan
// snapshot are O(slots), so a long horizon over a fine grid is
// quadratic work — a server bounding requests by deadline needs this
// variant.
func SimulateContext(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	return simulate(ctx, cfg, func() (*Manager, chooseFunc, error) {
		m, err := New(cfg.Manager)
		if err != nil {
			return nil, nil, err
		}
		return m, m.chooseSlot, nil
	})
}

// chooseFunc is the Algorithm 2 step of a closed-loop slot: the
// slot's operating point, the switching energy charged at its
// boundary, and whether the point moved from the previous slot's by
// the manager's own notion of equality.
type chooseFunc func() (point params.OperatingPoint, overhead float64, switched bool, err error)

// chooseSlot is the homogeneous manager's chooseFunc.
func (m *Manager) chooseSlot() (params.OperatingPoint, float64, bool, error) {
	prev, started := m.current, m.started
	point, overhead := m.BeginSlot()
	return point, overhead, started && point != prev, nil
}

// simulate is the one closed loop behind SimulateContext and
// SimulateVector; build makes the manager and its point chooser.
func simulate(ctx context.Context, cfg SimConfig, build func() (*Manager, chooseFunc, error)) (*SimResult, error) {
	if cfg.Periods <= 0 {
		return nil, fmt.Errorf("dpm: non-positive period count %d", cfg.Periods)
	}
	mgr, choose, err := build()
	if err != nil {
		return nil, err
	}
	actual := cfg.ActualCharging
	if actual == nil {
		actual = cfg.Manager.Charging
	}
	if actual.Len() != mgr.Slots() {
		return nil, fmt.Errorf("dpm: actual charging has %d slots, plan has %d", actual.Len(), mgr.Slots())
	}
	bat, err := newBattery(cfg.Manager)
	if err != nil {
		return nil, err
	}

	totalSlots := cfg.Periods * mgr.Slots()
	res := &SimResult{Records: make([]SlotRecord, 0, totalSlots)}
	for s := 0; s < totalSlots; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := runSlot(res, bat, mgr, choose, &cfg, s, actual.Values[s%mgr.Slots()]); err != nil {
			return nil, err
		}
	}
	res.Battery = bat.Snapshot()
	return res, nil
}

// newBattery returns the real battery a closed loop draws from.
func newBattery(cfg Config) (*battery.Battery, error) {
	bat, err := battery.New(battery.Config{
		CapacityMax: cfg.CapacityMax,
		CapacityMin: cfg.CapacityMin,
		Initial:     cfg.InitialCharge,
	})
	if err != nil {
		return nil, fmt.Errorf("dpm: battery: %w", err)
	}
	return bat, nil
}

// runSlot is the slot body of every dpm closed loop, the Figure 1
// cycle for mgr's current slot: choose the point, draw the slot from
// bat, credit the delivered performance, close the slot with
// Algorithm 3, sync the measured charge if cfg.SyncCharge, and append
// the record for absolute slot s to res. supplyPower is what the
// source actually delivers over the slot.
func runSlot(res *SimResult, bat *battery.Battery, mgr *Manager, choose chooseFunc, cfg *SimConfig, s int, supplyPower float64) error {
	planned := mgr.PlannedPower()
	point, overhead, switched, err := choose()
	if err != nil {
		return err
	}
	if switched {
		res.Switches++
	}

	tau := mgr.Tau()
	usedPower := point.Power + overhead/tau
	requested := usedPower * tau
	delivered := cfg.Battery.Step(bat, supplyPower, usedPower, tau)
	if requested > 0 {
		res.PerfSeconds += point.Perf * tau * (delivered / requested)
	}

	// Report what was really consumed: an undersupplied slot spends
	// only what the battery could deliver, and Algorithm 3 then sees
	// the shortfall as surplus plan to push forward.
	mgr.EndSlot(delivered, supplyPower*tau)
	if cfg.SyncCharge {
		mgr.SyncCharge(bat.Charge())
	}
	var planCopy []float64
	if !cfg.OmitPlanSnapshots {
		planCopy = mgr.PlanSnapshot()
	}
	res.Records = append(res.Records, SlotRecord{
		Time:          float64(s) * tau,
		Planned:       planned,
		Point:         point,
		UsedPower:     usedPower,
		SuppliedPower: supplyPower,
		Charge:        bat.Charge(),
		Plan:          planCopy,
	})
	return nil
}

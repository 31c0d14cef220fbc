package dpm

import (
	"context"
	"fmt"

	"dpm/internal/params"
)

// VectorManager is the §6 extension made operational: the same
// three-stage pipeline as Manager, but each slot's budget is mapped
// to a *per-processor* frequency assignment (params.VectorSelect, or
// params.HeteroSelect for a heterogeneous fleet) instead of a common
// clock. Allocation and the Algorithm 3 update are inherited
// unchanged — only the power→parameters stage differs.
type VectorManager struct {
	*Manager
	fleet    *params.Fleet // nil: uniform fleet via VectorSelect
	vcurrent params.VectorPoint
	vstarted bool
}

// NewVector builds a per-processor manager from the same Config as
// New.
func NewVector(cfg Config) (*VectorManager, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &VectorManager{Manager: m}, nil
}

// NewHetero builds a per-processor manager whose slot assignments
// come from HeteroSelect over the given fleet — the paper's full §6
// extension (different frequencies *and* different processors).
func NewHetero(cfg Config, fleet params.Fleet) (*VectorManager, error) {
	m, err := NewVector(cfg)
	if err != nil {
		return nil, err
	}
	if fleet.N() == 0 {
		return nil, fmt.Errorf("dpm: empty fleet")
	}
	m.fleet = &fleet
	return m, nil
}

// selectAssignment maps a budget to a per-processor assignment using
// the configured selector.
func (m *VectorManager) selectAssignment(budget float64) (params.VectorPoint, error) {
	if m.fleet == nil {
		return params.VectorSelect(m.cfg.Params, budget)
	}
	h, err := params.HeteroSelect(m.cfg.Params, *m.fleet, budget)
	if err != nil {
		return params.VectorPoint{}, err
	}
	// Compact the assignment to its active clocks for the shared
	// VectorPoint shape.
	vp := params.VectorPoint{Power: h.Power, Perf: h.Perf}
	for i, f := range h.Freqs {
		if f > 0 {
			vp.Freqs = append(vp.Freqs, f)
			vp.Volts = append(vp.Volts, h.Volts[i])
		}
	}
	return vp, nil
}

// vectorEqual reports whether two assignments run the same clocks.
func vectorEqual(a, b params.VectorPoint) bool {
	if len(a.Freqs) != len(b.Freqs) {
		return false
	}
	for i := range a.Freqs {
		if a.Freqs[i] != b.Freqs[i] {
			return false
		}
	}
	return true
}

// vectorSwitchCost prices a move between assignments: OHn once if the
// active count changes, plus OHf per processor whose clock changes
// (frequencies compared position-wise after the descending sort, a
// conservative upper bound on the real reassignment).
func (m *VectorManager) vectorSwitchCost(from, to params.VectorPoint) float64 {
	cost := 0.0
	if len(from.Freqs) != len(to.Freqs) {
		cost += m.cfg.Params.OverheadProc
	}
	n := len(from.Freqs)
	if len(to.Freqs) < n {
		n = len(to.Freqs)
	}
	for i := 0; i < n; i++ {
		if from.Freqs[i] != to.Freqs[i] {
			cost += m.cfg.Params.OverheadFreq
		}
	}
	return cost
}

// BeginSlotVector chooses the per-processor assignment for the
// current slot, applying the homogeneous manager's switching test
// (params.Config.TakeSwitch) to moves priced by vectorSwitchCost. It
// returns the assignment and the switching energy charged at this
// boundary.
func (m *VectorManager) BeginSlotVector() (params.VectorPoint, float64, error) {
	budget, _ := m.SlotBudget()
	candidate, err := m.selectAssignment(budget)
	if err != nil {
		return params.VectorPoint{}, 0, fmt.Errorf("dpm: vector selection: %w", err)
	}
	overhead := 0.0
	switch {
	case !m.vstarted:
		m.vcurrent = candidate
		m.vstarted = true
	case vectorEqual(m.vcurrent, candidate):
		// keep
	default:
		cost := m.vectorSwitchCost(m.vcurrent, candidate)
		if m.cfg.Params.TakeSwitch(m.vcurrent.Power, m.vcurrent.Perf, candidate.Power, candidate.Perf, m.tau, cost) {
			overhead = cost
			m.vcurrent = candidate
		}
	}
	return m.vcurrent, overhead, nil
}

// CurrentVector returns the assignment chosen by the last
// BeginSlotVector.
func (m *VectorManager) CurrentVector() params.VectorPoint { return m.vcurrent }

// chooseSlot is BeginSlotVector as the closed loop consumes it: the
// assignment maps to a synthetic OperatingPoint whose N and Power
// mirror it (F and V are the fastest clock's), and it counts as
// switched when its clocks differ from the previous slot's.
func (m *VectorManager) chooseSlot() (params.OperatingPoint, float64, bool, error) {
	prev, started := m.vcurrent, m.vstarted
	vp, overhead, err := m.BeginSlotVector()
	if err != nil {
		return params.OperatingPoint{}, 0, false, err
	}
	point := params.OperatingPoint{N: vp.N(), Power: vp.Power, Perf: vp.Perf}
	if vp.N() > 0 {
		point.F = vp.Freqs[0]
		point.V = vp.Volts[0]
	}
	return point, overhead, started && !vectorEqual(vp, prev), nil
}

// SimulateVector runs the per-processor manager through the same
// closed loop as Simulate. Records carry chooseSlot's synthetic
// OperatingPoint so the result type stays shared.
func SimulateVector(cfg SimConfig) (*SimResult, error) {
	return simulate(context.Background(), cfg, func() (*Manager, chooseFunc, error) {
		m, err := NewVector(cfg.Manager)
		if err != nil {
			return nil, nil, err
		}
		return m.Manager, m.chooseSlot, nil
	})
}

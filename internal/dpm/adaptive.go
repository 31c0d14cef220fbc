package dpm

import (
	"fmt"

	"dpm/internal/predict"
	"dpm/internal/schedule"
)

// AdaptiveConfig drives SimulateAdaptive: a multi-period run where
// the manager's *expected* charging schedule is re-derived each
// period by a predictor over the realized history — closing the
// outer loop of the paper's Figure 1 ("Expected Charging Schedule"
// feeds the allowable-power estimation, and §2 says the expectation
// comes from recorded previous periods).
type AdaptiveConfig struct {
	// Base is the manager configuration for the first period; its
	// Charging field doubles as the initial expectation.
	Base Config
	// ActualPeriods holds the realized charging schedule of each
	// period, one grid per period.
	ActualPeriods []*schedule.Grid
	// Predictor re-estimates the expected charging schedule after
	// every completed period. Nil keeps the Base expectation fixed.
	Predictor predict.Predictor
	// Battery selects the intra-slot battery semantics.
	Battery BatteryModel
}

// SimulateAdaptive runs one manager per period, each planned with the
// predictor's current expectation, against a battery that persists
// across periods. It returns the concatenated per-slot records and
// the final accounting.
func SimulateAdaptive(cfg AdaptiveConfig) (*SimResult, error) {
	if len(cfg.ActualPeriods) == 0 {
		return nil, fmt.Errorf("dpm: adaptive run needs at least one actual period")
	}
	bat, err := newBattery(cfg.Base)
	if err != nil {
		return nil, err
	}
	loop := SimConfig{Battery: cfg.Battery, SyncCharge: true}
	expected := cfg.Base.Charging
	res := &SimResult{}
	var prev *Manager
	for periodIdx, actual := range cfg.ActualPeriods {
		if actual.Len() != expected.Len() || actual.Step != expected.Step {
			return nil, fmt.Errorf("dpm: period %d geometry %d×%gs does not match expectation %d×%gs",
				periodIdx, actual.Len(), actual.Step, expected.Len(), expected.Step)
		}
		mcfg := cfg.Base
		mcfg.Charging = expected
		mcfg.InitialCharge = bat.Charge()
		mgr, err := New(mcfg)
		if err != nil {
			return nil, fmt.Errorf("dpm: period %d: %w", periodIdx, err)
		}
		if prev != nil && prev.started {
			// Carry the operating point across the period boundary so
			// switch counting and overheads stay honest.
			mgr.current = prev.current
			mgr.started = true
		}
		for s := 0; s < mgr.Slots(); s++ {
			if err := runSlot(res, bat, mgr, mgr.chooseSlot, &loop, periodIdx*mgr.Slots()+s, actual.Values[s]); err != nil {
				return nil, err
			}
		}
		prev = mgr
		if expected, err = predict.Advance(cfg.Predictor, actual, expected); err != nil {
			return nil, fmt.Errorf("dpm: period %d: %w", periodIdx, err)
		}
	}
	res.Battery = bat.Snapshot()
	return res, nil
}

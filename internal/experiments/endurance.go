package experiments

import (
	"fmt"

	"dpm/internal/battery"
	"dpm/internal/dpm"
	"dpm/internal/predict"
	"dpm/internal/report"
	"dpm/internal/trace"
)

// The endurance experiment stretches the paper's two-period
// evaluation to mission length: tens of periods with the solar panel
// degrading, the battery leaking and fading, and the manager
// re-deriving its expected charging schedule each period from the
// realized history (§2's "recorded charging power for the previous
// period"). It demonstrates that the Figure 1 loop stays stable far
// beyond the published horizon.

// EnduranceConfig parameterizes the long run.
type EnduranceConfig struct {
	// Scenario supplies the base schedules and battery band.
	Scenario trace.Scenario
	// Periods is the mission length.
	Periods int
	// SolarDegradationPerPeriod scales the actual charging schedule
	// down each period (e.g. 0.005 = 0.5%/period).
	SolarDegradationPerPeriod float64
	// Jitter adds per-slot multiplicative noise on the actual
	// charging (0 disables).
	Jitter float64
	// Seed drives the jitter realization.
	Seed int64
	// Aging configures the battery non-idealities.
	Aging battery.AgingConfig
	// Predictor re-estimates the expected charging each period; nil
	// keeps the scenario's schedule forever (the stale-forecast
	// comparison case).
	Predictor predict.Predictor
	// DisableSlotGuards turns off the manager's slot-granular
	// budget guards, exposing the raw effect of forecast quality on
	// the energy residuals.
	DisableSlotGuards bool
	// PlanningMargin keeps a fraction of the battery band clear at
	// each end when planning (headroom against jitter).
	PlanningMargin float64
}

// PeriodSummary is one period's accounting.
type PeriodSummary struct {
	// Period is the zero-based index.
	Period int
	// Wasted and Undersupplied are the period's deltas in joules.
	Wasted, Undersupplied float64
	// Utilization is delivered/supplied within the period.
	Utilization float64
	// Capacity is the battery's effective Cmax at period end.
	Capacity float64
	// ForecastRMSE measures expected-vs-actual charging for the
	// period in watts.
	ForecastRMSE float64
}

// EnduranceResult aggregates a run.
type EnduranceResult struct {
	// Periods holds one summary per period.
	Periods []PeriodSummary
	// Battery is the final accounting.
	Battery battery.Snapshot
	// Leaked and Faded are the aging losses in joules.
	Leaked, Faded float64
	// PerfSeconds integrates delivered performance.
	PerfSeconds float64
}

func (c EnduranceConfig) validate() error {
	if c.Periods <= 0 {
		return fmt.Errorf("experiments: non-positive mission length %d", c.Periods)
	}
	if c.SolarDegradationPerPeriod < 0 || c.SolarDegradationPerPeriod >= 1 {
		return fmt.Errorf("experiments: degradation %g outside [0, 1)", c.SolarDegradationPerPeriod)
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("experiments: jitter %g outside [0, 1)", c.Jitter)
	}
	return nil
}

// Endurance runs the mission and returns per-period summaries.
func Endurance(cfg EnduranceConfig) (*EnduranceResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := cfg.Scenario
	base, err := battery.New(battery.Config{
		CapacityMax: s.CapacityMax,
		CapacityMin: s.CapacityMin,
		Initial:     s.InitialCharge,
	})
	if err != nil {
		return nil, err
	}
	bat, err := battery.NewAging(base, cfg.Aging)
	if err != nil {
		return nil, err
	}

	expected := s.Charging
	res := &EnduranceResult{}
	prevWasted, prevUnder := 0.0, 0.0
	for p := 0; p < cfg.Periods; p++ {
		// Realize this period's supply: degraded and jittered.
		scale := 1.0
		for i := 0; i < p; i++ {
			scale *= 1 - cfg.SolarDegradationPerPeriod
		}
		actual := s.Charging.Scale(scale)
		if cfg.Jitter > 0 {
			actual = trace.Perturb(actual, cfg.Jitter, cfg.Seed+int64(p))
		}

		mcfg := ManagerConfig(s)
		mcfg.Charging = expected
		mcfg.CapacityMax = bat.EffectiveCapacity()
		mcfg.InitialCharge = bat.Charge()
		mcfg.DisableSlotGuards = cfg.DisableSlotGuards
		mcfg.PlanningMargin = cfg.PlanningMargin
		mgr, err := dpm.New(mcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: period %d: %w", p, err)
		}

		// The slot body mirrors dpm's closed loop but cannot share it:
		// the battery ages between the draw and the charge sync.
		tau := mgr.Tau()
		suppliedBefore := bat.TotalSupplied()
		deliveredBefore := bat.TotalDelivered()
		for slot := 0; slot < mgr.Slots(); slot++ {
			point, overhead := mgr.BeginSlot()
			usedPower := point.Power + overhead/tau
			requested := usedPower * tau
			delivered := bat.StepNet(actual.Values[slot], usedPower, tau)
			bat.Age(tau)
			if requested > 0 {
				res.PerfSeconds += point.Perf * tau * (delivered / requested)
			}
			mgr.EndSlot(delivered, actual.Values[slot]*tau)
			mgr.SyncCharge(bat.Charge())
		}

		forecastErr, err := predict.Evaluate(expected, actual)
		if err != nil {
			return nil, err
		}
		supplied := bat.TotalSupplied() - suppliedBefore
		delivered := bat.TotalDelivered() - deliveredBefore
		util := 0.0
		if supplied > 0 {
			util = delivered / supplied
		}
		res.Periods = append(res.Periods, PeriodSummary{
			Period:        p,
			Wasted:        bat.Wasted() - prevWasted,
			Undersupplied: bat.Undersupplied() - prevUnder,
			Utilization:   util,
			Capacity:      bat.EffectiveCapacity(),
			ForecastRMSE:  forecastErr.RMSE,
		})
		prevWasted, prevUnder = bat.Wasted(), bat.Undersupplied()

		if expected, err = predict.Advance(cfg.Predictor, actual, expected); err != nil {
			return nil, err
		}
	}
	res.Battery = bat.Snapshot()
	res.Leaked = bat.Leaked()
	res.Faded = bat.Faded()
	return res, nil
}

// EnduranceTable renders per-period summaries (sampled every stride
// periods to keep long missions readable).
func EnduranceTable(res *EnduranceResult, stride int) *report.Table {
	if stride < 1 {
		stride = 1
	}
	t := report.NewTable(
		"Endurance: per-period accounting",
		"Period", "Wasted (J)", "Undersupplied (J)", "Utilization", "Cmax (J)", "Forecast RMSE (W)")
	for i := 0; i < len(res.Periods); i += stride {
		p := res.Periods[i]
		t.AddRow(
			report.I(p.Period),
			report.F2(p.Wasted),
			report.F2(p.Undersupplied),
			fmt.Sprintf("%.1f%%", 100*p.Utilization),
			report.F2(p.Capacity),
			report.F2(p.ForecastRMSE),
		)
	}
	return t
}

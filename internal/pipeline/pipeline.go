// Package pipeline is the single plan → params → simulate engine
// behind every entry point of the repository: the HTTP service
// (internal/server), the library facade (package dpm), the experiment
// harness (internal/experiments) and the command-line tools. It wraps
// the paper's three algorithms — the §4.1 initial power allocation
// (alloc.ComputeContext), the §4.2 operating-point table
// (params.BuildTable) and the §4.3 closed-loop manager simulations
// (dpm.SimulateContext, machine.Run) — behind one validated,
// context-aware surface, so the wiring that used to be copied into
// five call sites lives in exactly one place.
//
// Every specification is validated by internal/scenario before any
// work runs, and the hot Algorithm 3 replan path reuses the manager's
// scratch buffers (no per-slot allocation in steady state; see
// dpm.Manager and dpm.SimConfig.OmitPlanSnapshots). ForEach fans work
// across a bounded worker pool — dpmd's POST /v1/batch calls it
// directly — and PlanMany is its library form over plan specifications.
package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"dpm/internal/alloc"
	"dpm/internal/dpm"
	"dpm/internal/faults"
	"dpm/internal/machine"
	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/scenario"
	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// Span names recorded by the engine (internal/obs). Every entry point
// wraps its phases in these spans; with no Recorder on the context
// the calls collapse to the nil fast path. The per-iteration
// Algorithm 1 spans ("alloc.iteration") and the Algorithm 2 memoizer
// spans ("params.table", "params.BuildTable") are recorded by
// internal/alloc and internal/params respectively.
const (
	spanValidate = "pipeline.validate"
	spanPlan     = "pipeline.plan"
	spanParams   = "pipeline.params"
	spanReplay   = "pipeline.replay"
	spanSimulate = "pipeline.simulate"
	spanEvents   = "pipeline.events"
	spanMachine  = "pipeline.machine"
)

// PlanSpec asks for an Algorithm 1 power allocation.
type PlanSpec struct {
	// Scenario is the planning environment: charging and usage
	// schedules, optional weight, battery band.
	Scenario trace.Scenario
	// Strategy selects the arc-reshaping flavor.
	Strategy alloc.AdjustStrategy
	// MaxIterations bounds the Algorithm 1 driver (0 = default 16).
	MaxIterations int
	// Margin keeps a fraction of the battery band clear at each end
	// (0 ≤ margin < 0.5).
	Margin float64
}

// Validate applies the canonical input bounds without running the
// plan. All failures are *scenario.Error values.
func (p PlanSpec) Validate() error {
	if err := scenario.Validate(p.Scenario); err != nil {
		return err
	}
	if p.MaxIterations < 0 || p.MaxIterations > scenario.MaxIterationsLimit {
		return scenario.Errorf("maxIterations %d outside [0, %d]", p.MaxIterations, scenario.MaxIterationsLimit)
	}
	if !scenario.IsFinite(p.Margin) || p.Margin < 0 || p.Margin >= 0.5 {
		return scenario.Errorf("margin %g outside [0, 0.5)", p.Margin)
	}
	return nil
}

// Plan validates the spec and runs Algorithm 1 (§4.1): WPUF →
// balancing → feasible per-slot power allocation. ctx is polled
// between driver iterations.
func Plan(ctx context.Context, spec PlanSpec) (*alloc.Result, error) {
	ctx, span := obs.StartSpan(ctx, spanPlan)
	defer span.End()
	_, vspan := obs.StartSpan(ctx, spanValidate)
	err := spec.Validate()
	vspan.End()
	if err != nil {
		return nil, err
	}
	return alloc.ComputeContext(ctx, alloc.Inputs{
		Charging:      spec.Scenario.Charging,
		EventRate:     spec.Scenario.Usage,
		Weight:        spec.Scenario.Weight,
		CapacityMax:   spec.Scenario.CapacityMax,
		CapacityMin:   spec.Scenario.CapacityMin,
		InitialCharge: spec.Scenario.InitialCharge,
		MaxIterations: spec.MaxIterations,
		Margin:        spec.Margin,
		Strategy:      spec.Strategy,
	})
}

// Table validates a hardware block (nil means the PAMA defaults) and
// returns the Algorithm 2 operating-point table plus the params
// configuration it came from. The table comes from the process-wide
// memoizer (params.SharedTable): the enumerate + Pareto-prune step
// runs once per distinct hardware block, and every caller walks the
// same immutable table. ctx carries telemetry (the memoizer records a
// "params.table" span with its hit/miss disposition) and cancels a
// coalesced build wait.
func Table(ctx context.Context, hw *scenario.Hardware) (*params.Table, params.Config, error) {
	ctx, span := obs.StartSpan(ctx, spanParams)
	defer span.End()
	cfg, err := hw.WithDefaults().ParamsConfig()
	if err != nil {
		return nil, params.Config{}, err
	}
	tbl, _, err := params.SharedTableContext(ctx, cfg)
	if err != nil {
		return nil, params.Config{}, err
	}
	return tbl, cfg, nil
}

// ManagerConfig assembles the dpm manager configuration every
// pipeline caller shares. It is pure assembly — dpm.New re-validates
// the inputs through internal/scenario, so no error can be deferred
// past construction.
func ManagerConfig(s trace.Scenario, pcfg params.Config, policy dpm.RedistributePolicy) dpm.Config {
	return dpm.Config{
		Charging:      s.Charging,
		EventRate:     s.Usage,
		Weight:        s.Weight,
		CapacityMax:   s.CapacityMax,
		CapacityMin:   s.CapacityMin,
		InitialCharge: s.InitialCharge,
		Params:        pcfg,
		Policy:        policy,
	}
}

// SlotReport is one completed slot's measured energies.
type SlotReport struct {
	// UsedJ is the energy the system actually consumed in joules.
	UsedJ float64
	// SuppliedJ is the energy the source actually delivered.
	SuppliedJ float64
}

// ValidateReports applies the slot-report bounds shared by the
// stateless /v1/replan path (Replay) and the fleet tick path: at
// least one report, at most scenario.MaxSlots, every energy finite
// and within [0, scenario.MaxEnergyJ].
func ValidateReports(reports []SlotReport) error {
	if len(reports) == 0 {
		return scenario.Errorf("at least one slot report is required")
	}
	if len(reports) > scenario.MaxSlots {
		return scenario.Errorf("%d slot reports exceed the limit of %d", len(reports), scenario.MaxSlots)
	}
	for i, rep := range reports {
		if !scenario.IsFinite(rep.UsedJ) || rep.UsedJ < 0 || rep.UsedJ > scenario.MaxEnergyJ ||
			!scenario.IsFinite(rep.SuppliedJ) || rep.SuppliedJ < 0 || rep.SuppliedJ > scenario.MaxEnergyJ {
			return scenario.Errorf("slots[%d] energies (%g, %g) outside [0, %g] joules",
				i, rep.UsedJ, rep.SuppliedJ, float64(scenario.MaxEnergyJ))
		}
	}
	return nil
}

// Replay runs the Algorithm 3 runtime update (§4.3): build a manager
// for the scenario, restore the optional checkpoint, and apply the
// reported planned-vs-actual slot energies oldest first. The returned
// manager carries the redistributed plan and the next checkpoint.
// ctx carries telemetry only — the replay itself is a short,
// non-blocking computation. The manager plans with the default
// (paper) backend; ReplayWith selects an alternative.
func Replay(ctx context.Context, s trace.Scenario, pcfg params.Config, policy dpm.RedistributePolicy, state *dpm.State, reports []SlotReport) (*dpm.Manager, error) {
	return ReplayWith(ctx, DefaultStrategy, s, pcfg, policy, state, reports)
}

// SimSpec describes a closed-loop analytic simulation: the manager
// plans with the scenario's expected schedules while the environment
// delivers the actual ones.
type SimSpec struct {
	// Scenario is the planning environment.
	Scenario trace.Scenario
	// Planner names the strategy backend the manager's initial plan
	// comes from ("" = the paper's Algorithm 1). Runtime Algorithm 3
	// redistribution is unchanged either way.
	Planner string
	// Params is the Algorithm 2 hardware configuration.
	Params params.Config
	// Policy selects the Algorithm 3 redistribution flavor.
	Policy dpm.RedistributePolicy
	// Battery selects the intra-slot battery semantics.
	Battery dpm.BatteryModel
	// ActualCharging is what the source really delivers; nil means
	// the expectation holds.
	ActualCharging *schedule.Grid
	// Periods is the horizon in charging periods.
	Periods int
	// SyncCharge copies the real battery charge into the manager
	// after every slot (the PAMA power-measurement board).
	SyncCharge bool
	// DisableSlotGuards reproduces the paper's guard-free planner.
	DisableSlotGuards bool
	// PlanSnapshots records the full per-period plan after every slot
	// (the paper's Tables 3/5 columns). Off by default: the snapshot
	// is the one per-slot allocation left on the hot path.
	PlanSnapshots bool
}

// Simulate validates the spec and runs the analytic closed-loop
// simulation. ctx is polled once per simulated slot.
func Simulate(ctx context.Context, spec SimSpec) (*dpm.SimResult, error) {
	ctx, span := obs.StartSpan(ctx, spanSimulate)
	defer span.End()
	if spec.ActualCharging != nil {
		_, vspan := obs.StartSpan(ctx, spanValidate)
		err := scenario.ValidateGrid("actualCharging", spec.ActualCharging, true)
		vspan.End()
		if err != nil {
			return nil, err
		}
	}
	span.SetAttr("periods", spec.Periods)
	cfg := ManagerConfig(spec.Scenario, spec.Params, spec.Policy)
	cfg.DisableSlotGuards = spec.DisableSlotGuards
	if err := injectStrategyPlan(ctx, spec.Planner, spec.Scenario, &cfg); err != nil {
		return nil, err
	}
	return dpm.SimulateContext(ctx, dpm.SimConfig{
		Battery:           spec.Battery,
		Manager:           cfg,
		ActualCharging:    spec.ActualCharging,
		Periods:           spec.Periods,
		SyncCharge:        spec.SyncCharge,
		OmitPlanSnapshots: !spec.PlanSnapshots,
	})
}

// MachineSpec describes a discrete-event PAMA board simulation driven
// by a Poisson event trace.
type MachineSpec struct {
	// Scenario is the planning environment.
	Scenario trace.Scenario
	// Planner names the strategy backend the manager's initial plan
	// comes from ("" = the paper's Algorithm 1).
	Planner string
	// Params is the Algorithm 2 hardware configuration.
	Params params.Config
	// Policy selects the Algorithm 3 redistribution flavor.
	Policy dpm.RedistributePolicy
	// ActualCharging is what the source really delivers; nil means
	// the expectation holds.
	ActualCharging *schedule.Grid
	// Periods is the horizon in charging periods.
	Periods int
	// EventScale converts scheduled usage watts into an event rate
	// (events/s per W); Seed makes the trace reproducible.
	EventScale float64
	Seed       int64
	// MaxExpectedEvents, when positive, rejects a spec whose expected
	// event count (peak rate × scale × horizon) exceeds it before any
	// trace is drawn, and hard-caps the generator at twice that (slack
	// for Poisson fluctuation). Zero trusts the caller.
	MaxExpectedEvents int
	// ExecuteDSP runs the FORTE DSP workload on each capture;
	// GangScheduled spreads each capture across all active workers.
	ExecuteDSP    bool
	GangScheduled bool
	// Faults injects the optional seeded fault plan;
	// DisableDegradedReplan ablates the recovery re-plan.
	Faults                *faults.Plan
	DisableDegradedReplan bool
}

// SimulateMachine validates the spec, draws the event trace, and runs
// the board simulation. ctx is honored while drawing the trace and
// between simulated events.
func SimulateMachine(ctx context.Context, spec MachineSpec) (*machine.Result, error) {
	ctx, span := obs.StartSpan(ctx, spanMachine)
	defer span.End()
	_, vspan := obs.StartSpan(ctx, spanValidate)
	err := scenario.Validate(spec.Scenario)
	if err == nil && spec.ActualCharging != nil {
		err = scenario.ValidateGrid("actualCharging", spec.ActualCharging, true)
	}
	vspan.End()
	if err != nil {
		return nil, err
	}
	if !scenario.IsFinite(spec.EventScale) || spec.EventScale < 0 {
		return nil, scenario.Errorf("eventScale %g must be non-negative", spec.EventScale)
	}
	horizon := float64(spec.Periods) * spec.Scenario.Charging.Period()
	maxEvents := 0
	if spec.MaxExpectedEvents > 0 {
		// The per-magnitude input bounds still admit an enormous
		// rate × horizon product, and the Poisson thinning loop iterates
		// ~maxRate·scale·horizon times while materializing every
		// accepted arrival. Bound the expected event count before
		// drawing anything so a hostile scenario is a cheap validation
		// error, not a wedged worker.
		maxRate := 0.0
		for _, v := range spec.Scenario.Usage.Values {
			if v > maxRate {
				maxRate = v
			}
		}
		if expected := maxRate * spec.EventScale * horizon; expected > float64(spec.MaxExpectedEvents) {
			return nil, scenario.Errorf("scenario implies ~%.3g events over the %g s horizon; the limit is %d — lower the usage rates, eventScale or periods",
				expected, horizon, spec.MaxExpectedEvents)
		}
		maxEvents = 2 * spec.MaxExpectedEvents
	}
	_, espan := obs.StartSpan(ctx, spanEvents)
	events, err := trace.PoissonEventsBounded(ctx, spec.Scenario.Usage, spec.EventScale, horizon, spec.Seed, maxEvents)
	espan.SetAttr("events", len(events))
	espan.End()
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, asValidation(err)
	}
	mcfg := ManagerConfig(spec.Scenario, spec.Params, spec.Policy)
	if err := injectStrategyPlan(ctx, spec.Planner, spec.Scenario, &mcfg); err != nil {
		return nil, err
	}
	board, err := machine.New(machine.Config{
		Manager:               mcfg,
		ActualCharging:        spec.ActualCharging,
		Events:                events,
		Periods:               spec.Periods,
		ExecuteDSP:            spec.ExecuteDSP,
		GangScheduled:         spec.GangScheduled,
		Faults:                spec.Faults,
		DisableDegradedReplan: spec.DisableDegradedReplan,
	})
	if err != nil {
		return nil, asValidation(err)
	}
	return board.RunContext(ctx)
}

// asValidation classifies a configuration-stage failure as a
// validation error — the transport layers' client-error channel —
// preserving errors internal/scenario already classified.
func asValidation(err error) error {
	var ve *scenario.Error
	if errors.As(err, &ve) {
		return err
	}
	return scenario.Errorf("%v", err)
}

// ForEach runs fn for every index in [0, n) across a bounded pool of
// goroutines and waits for all of them. parallelism <= 0 means
// GOMAXPROCS. Every index runs even after ctx is cancelled — fn is
// expected to observe ctx and fail fast — so callers always get a
// fully populated result set.
func ForEach(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int)) {
	if n <= 0 {
		return
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(ctx, i)
		}(i)
	}
	wg.Wait()
}

// PlanOutcome is one PlanMany item's result: exactly one of Result
// and Err is set.
type PlanOutcome struct {
	// Result is the computed allocation.
	Result *alloc.Result
	// Err is the item's validation or planning failure.
	Err error
}

// PlanMany plans every spec across a bounded worker pool and returns
// the outcomes in input order. One spec's failure does not disturb
// the others — batch callers (dpmd's /v1/batch) report per-item
// status. parallelism <= 0 means GOMAXPROCS.
func PlanMany(ctx context.Context, specs []PlanSpec, parallelism int) []PlanOutcome {
	out := make([]PlanOutcome, len(specs))
	ForEach(ctx, len(specs), parallelism, func(ctx context.Context, i int) {
		res, err := Plan(ctx, specs[i])
		out[i] = PlanOutcome{Result: res, Err: err}
	})
	return out
}

package dpm

import (
	"testing"

	"dpm/internal/params"
	"dpm/internal/power"
	"dpm/internal/trace"
)

func TestNewVector(t *testing.T) {
	m, err := NewVector(managerConfig(t, trace.ScenarioI()))
	if err != nil {
		t.Fatal(err)
	}
	vp, overhead, err := m.BeginSlotVector()
	if err != nil {
		t.Fatal(err)
	}
	if overhead != 0 {
		t.Errorf("first slot charged overhead %g", overhead)
	}
	if vp.Power > m.PlannedPower()+1e-9 && vp.N() > 0 {
		t.Errorf("assignment %v exceeds budget %g", vp.Freqs, m.PlannedPower())
	}
	if got := m.CurrentVector(); !vectorEqual(got, vp) {
		t.Error("CurrentVector must return the last assignment")
	}
}

func TestNewVectorPropagatesErrors(t *testing.T) {
	cfg := managerConfig(t, trace.ScenarioI())
	cfg.Charging = nil
	if _, err := NewVector(cfg); err == nil {
		t.Error("broken config must error")
	}
}

func TestVectorEqual(t *testing.T) {
	a := params.VectorPoint{Freqs: []float64{80e6, 20e6}}
	b := params.VectorPoint{Freqs: []float64{80e6, 20e6}}
	c := params.VectorPoint{Freqs: []float64{80e6}}
	d := params.VectorPoint{Freqs: []float64{80e6, 40e6}}
	if !vectorEqual(a, b) || vectorEqual(a, c) || vectorEqual(a, d) {
		t.Error("vectorEqual broken")
	}
}

func TestVectorSwitchCost(t *testing.T) {
	cfg := managerConfig(t, trace.ScenarioI())
	cfg.Params.OverheadProc = 1
	cfg.Params.OverheadFreq = 0.1
	m, err := NewVector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := params.VectorPoint{Freqs: []float64{80e6, 20e6}}
	b := params.VectorPoint{Freqs: []float64{80e6, 40e6}}
	if got := m.vectorSwitchCost(a, b); got != 0.1 {
		t.Errorf("one clock change = %g", got)
	}
	c := params.VectorPoint{Freqs: []float64{80e6}}
	if got := m.vectorSwitchCost(a, c); got != 1 {
		t.Errorf("count change = %g", got)
	}
	if got := m.vectorSwitchCost(a, a); got != 0 {
		t.Errorf("no-op = %g", got)
	}
}

func TestSimulateVectorScenarioI(t *testing.T) {
	res, err := SimulateVector(SimConfig{Manager: managerConfig(t, trace.ScenarioI()), Periods: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 24 {
		t.Fatalf("records = %d", len(res.Records))
	}
	s := trace.ScenarioI()
	for i, r := range res.Records {
		if r.Charge < s.CapacityMin-1e-9 || r.Charge > s.CapacityMax+1e-9 {
			t.Errorf("slot %d: charge %g out of band", i, r.Charge)
		}
	}
}

func TestSimulateVectorValidation(t *testing.T) {
	if _, err := SimulateVector(SimConfig{Manager: managerConfig(t, trace.ScenarioI()), Periods: 0}); err == nil {
		t.Error("zero periods must error")
	}
}

// The §6 payoff: per-processor clocks deliver at least as much
// performance as the common clock for the same scenario and energy
// envelope.
func TestVectorBeatsHomogeneousPerformance(t *testing.T) {
	cfg := managerConfig(t, trace.ScenarioI())
	hom, err := Simulate(SimConfig{Manager: cfg, Periods: 2})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := SimulateVector(SimConfig{Manager: cfg, Periods: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vec.PerfSeconds < hom.PerfSeconds*0.98 {
		t.Errorf("vector perf %.3g below homogeneous %.3g", vec.PerfSeconds, hom.PerfSeconds)
	}
	// Energy discipline holds in both modes.
	if vec.Battery.Undersupplied > hom.Battery.Undersupplied+5 {
		t.Errorf("vector undersupply %.2f J far above homogeneous %.2f J",
			vec.Battery.Undersupplied, hom.Battery.Undersupplied)
	}
}

func TestNewHetero(t *testing.T) {
	procs := make([]power.ProcessorModel, 7)
	for i := range procs {
		procs[i] = power.M32RD()
	}
	fleet, err := params.NewFleet(procs, []float64{2, 1.5, 1.2, 1, 1, 0.8, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewHetero(managerConfig(t, trace.ScenarioI()), fleet)
	if err != nil {
		t.Fatal(err)
	}
	vp, _, err := m.BeginSlotVector()
	if err != nil {
		t.Fatal(err)
	}
	if vp.N() == 0 {
		t.Fatal("no workers assigned on a funded slot")
	}
	if vp.Power > m.PlannedPower()+1e-9 {
		t.Errorf("assignment %v exceeds budget %g", vp.Freqs, m.PlannedPower())
	}
	// Mixed fleet should beat the uniform common-clock point at the
	// same budget (the fast chips do the serial work).
	uniform, err := NewVector(managerConfig(t, trace.ScenarioI()))
	if err != nil {
		t.Fatal(err)
	}
	uvp, _, err := uniform.BeginSlotVector()
	if err != nil {
		t.Fatal(err)
	}
	if vp.Perf < uvp.Perf {
		t.Errorf("hetero perf %g below uniform %g", vp.Perf, uvp.Perf)
	}
}

func TestNewHeteroEmptyFleet(t *testing.T) {
	if _, err := NewHetero(managerConfig(t, trace.ScenarioI()), params.Fleet{}); err == nil {
		t.Error("empty fleet must error")
	}
}

// upwardSwitches counts the slots after the first whose operating
// point draws more power than the previous slot's.
func upwardSwitches(res *SimResult) int {
	n := 0
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Point.Power > res.Records[i-1].Point.Power {
			n++
		}
	}
	return n
}

// Both managers apply Algorithm 2's one switching test: valued at
// PerfValue = 1e-9 J per perf·second, no performance gain pays for
// OHn/OHf = 0.5/1 J, so after its first slot neither manager ever
// moves to a point that draws more power.
func TestVectorSwitchingHonoursPerfValue(t *testing.T) {
	cfg := managerConfig(t, trace.ScenarioI())
	cfg.Params.OverheadProc, cfg.Params.OverheadFreq, cfg.Params.PerfValue = 0.5, 1, 1e-9
	hom, err := Simulate(SimConfig{Manager: cfg, Periods: 2})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := SimulateVector(SimConfig{Manager: cfg, Periods: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := upwardSwitches(hom); got != 0 {
		t.Errorf("homogeneous manager: %d upward switches", got)
	}
	if got := upwardSwitches(vec); got != 0 {
		t.Errorf("vector manager: %d upward switches", got)
	}
}

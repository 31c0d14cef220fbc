package params

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dpm/internal/perf"
	"dpm/internal/power"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// pamaConfig mirrors the paper's evaluation: 7 worker processors,
// frequencies {20, 40, 80} MHz, voltage pinned at 3.3 V, FFT-like
// workload with a 10% serial fraction.
func pamaConfig(t testing.TB) Config {
	t.Helper()
	w, err := perf.NewWorkload(4.8, 0.48)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		System:        power.PAMA(),
		Curve:         power.NewFixedVoltage(3.3, 80e6),
		Workload:      w,
		Frequencies:   []float64{20e6, 40e6, 80e6},
		MaxProcessors: 7,
		MinProcessors: 0,
	}
}

func TestBuildTableFrontier(t *testing.T) {
	tbl, err := BuildTable(pamaConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	pts := tbl.Points()
	if len(pts) < 2 {
		t.Fatalf("frontier too small: %d", len(pts))
	}
	// Frontier must be strictly increasing in both power and perf.
	for i := 1; i < len(pts); i++ {
		if pts[i].Power <= pts[i-1].Power {
			t.Errorf("frontier power not increasing at %d: %v then %v", i, pts[i-1], pts[i])
		}
		if pts[i].Perf <= pts[i-1].Perf {
			t.Errorf("frontier perf not increasing at %d: %v then %v", i, pts[i-1], pts[i])
		}
	}
	// The all-idle point must lead the frontier.
	if pts[0].N != 0 || pts[0].Perf != 0 {
		t.Errorf("first point should be all-idle: %v", pts[0])
	}
	// The top point must be 7 processors at 80 MHz.
	top := pts[len(pts)-1]
	if top.N != 7 || top.F != 80e6 {
		t.Errorf("top point = %v, want n=7 f=80 MHz", top)
	}
}

func TestBuildTableDominatedPairsPruned(t *testing.T) {
	// With a pinned voltage, (n=2, f=20 MHz) and (n=1, f=40 MHz) cost
	// nearly the same power but the latter performs better for a
	// workload with serial fraction > 0; the frontier keeps no point
	// that is beaten on both axes.
	tbl, err := BuildTable(pamaConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	pts := tbl.Points()
	for i, a := range pts {
		for j, b := range pts {
			if i != j && b.Power >= a.Power && b.Perf <= a.Perf && !(b == a) {
				if b.Power == a.Power && b.Perf == a.Perf {
					continue
				}
				t.Errorf("dominated point survived: %v dominated by %v", b, a)
			}
		}
	}
}

func TestBuildTableValidation(t *testing.T) {
	cfg := pamaConfig(t)
	bad := cfg
	bad.Frequencies = nil
	if _, err := BuildTable(bad); err == nil {
		t.Error("no frequencies must error")
	}
	bad = cfg
	bad.Frequencies = []float64{-1}
	if _, err := BuildTable(bad); err == nil {
		t.Error("negative frequency must error")
	}
	bad = cfg
	bad.MaxProcessors = 99
	if _, err := BuildTable(bad); err == nil {
		t.Error("MaxProcessors beyond the board must error")
	}
	bad = cfg
	bad.MinProcessors = 9
	if _, err := BuildTable(bad); err == nil {
		t.Error("MinProcessors above Max must error")
	}
	bad = cfg
	bad.Curve = nil
	if _, err := BuildTable(bad); err == nil {
		t.Error("nil curve must error")
	}
	bad = cfg
	bad.OverheadProc = -1
	if _, err := BuildTable(bad); err == nil {
		t.Error("negative overhead must error")
	}
}

func TestSelectRespectsBudget(t *testing.T) {
	tbl, err := BuildTable(pamaConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Generous budget: the top point.
	top := tbl.Select(100)
	if top.N != 7 || top.F != 80e6 {
		t.Errorf("Select(100 W) = %v", top)
	}
	// Budget below everything: the idle floor is returned even though
	// it exceeds the (absurd) budget.
	bottom := tbl.Select(0)
	if bottom.N != 0 {
		t.Errorf("Select(0) = %v, want the idle point", bottom)
	}
	// Mid-range budget: chosen point fits, next point would not.
	pts := tbl.Points()
	for i := 1; i < len(pts); i++ {
		budget := (pts[i-1].Power + pts[i].Power) / 2
		got := tbl.Select(budget)
		if got.Power > budget {
			t.Errorf("Select(%g) = %v exceeds budget", budget, got)
		}
		if got != pts[i-1] {
			t.Errorf("Select(%g) = %v, want %v", budget, got, pts[i-1])
		}
	}
}

func TestSelectMonotoneProperty(t *testing.T) {
	tbl, err := BuildTable(pamaConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	f := func(b1, b2 float64) bool {
		b1 = math.Abs(math.Mod(b1, 6))
		b2 = math.Abs(math.Mod(b2, 6))
		if math.IsNaN(b1) || math.IsNaN(b2) {
			return true
		}
		lo, hi := math.Min(b1, b2), math.Max(b1, b2)
		return tbl.Select(lo).Perf <= tbl.Select(hi).Perf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwitchCost(t *testing.T) {
	cfg := pamaConfig(t)
	cfg.OverheadProc = 0.1
	cfg.OverheadFreq = 0.2
	tbl, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := OperatingPoint{N: 2, F: 20e6}
	b := OperatingPoint{N: 3, F: 20e6}
	c := OperatingPoint{N: 3, F: 40e6}
	d := OperatingPoint{N: 2, F: 40e6}
	if got := tbl.SwitchCost(a, b); !approx(got, 0.1, 1e-12) {
		t.Errorf("proc-only switch = %g", got)
	}
	if got := tbl.SwitchCost(b, c); !approx(got, 0.2, 1e-12) {
		t.Errorf("freq-only switch = %g", got)
	}
	if got := tbl.SwitchCost(a, c); !approx(got, 0.3, 1e-12) {
		t.Errorf("both switch = %g", got)
	}
	if got := tbl.SwitchCost(a, d); !approx(got, 0.2, 1e-12) {
		t.Errorf("freq change same n = %g", got)
	}
	if got := tbl.SwitchCost(a, a); got != 0 {
		t.Errorf("no-op switch = %g", got)
	}
}

func TestShouldSwitch(t *testing.T) {
	cfg := pamaConfig(t)
	cfg.OverheadProc = 1e9 // prohibitive
	tbl, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := tbl.Points()
	low, high := pts[1], pts[len(pts)-1]
	// Upgrades must not pay a prohibitive overhead.
	if tbl.ShouldSwitch(low, high, 4.8) {
		t.Error("prohibitive overhead must suppress upgrades")
	}
	// Downgrades always happen (budget adherence).
	if !tbl.ShouldSwitch(high, low, 4.8) {
		t.Error("downgrades must always be taken")
	}
	// Zero overhead: upgrade taken.
	cfg.OverheadProc = 0
	tbl2, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl2.ShouldSwitch(low, high, 4.8) {
		t.Error("free upgrade must be taken")
	}
	if tbl2.ShouldSwitch(low, low, 4.8) {
		t.Error("identical points never switch")
	}
}

func TestTakeSwitch(t *testing.T) {
	var cfg Config // PerfValue zero means 1
	if !cfg.TakeSwitch(2, 10, 1, 5, 1, 1e9) {
		t.Error("a drop in power must be taken whatever it costs")
	}
	if !cfg.TakeSwitch(1, 5, 2, 10, 1, 4.9) || cfg.TakeSwitch(1, 5, 2, 10, 1, 5) {
		t.Error("a rise must be taken exactly when Δperf·τ exceeds the cost")
	}
	cfg.PerfValue = 0.1
	if cfg.TakeSwitch(1, 5, 2, 10, 4, 2) || !cfg.TakeSwitch(1, 5, 2, 10, 4, 1.9) {
		t.Error("PerfValue must scale the gain: Δperf·τ·PerfValue = 2")
	}
}

func TestPlanFollowsAllocation(t *testing.T) {
	tbl, err := BuildTable(pamaConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	allocation := []float64{2.36, 2.36, 1.18, 0.4, 0.05, 2.36}
	steps := tbl.Plan(allocation, 4.8)
	if len(steps) != len(allocation) {
		t.Fatalf("plan length %d", len(steps))
	}
	for i, s := range steps {
		if s.Slot != i {
			t.Errorf("step %d has slot %d", i, s.Slot)
		}
		if s.Point.Power > allocation[i] && s.Point.N != 0 {
			// Only the idle floor may exceed the budget.
			if s.Point != tbl.Points()[0] {
				t.Errorf("slot %d draws %g W over budget %g", i, s.Point.Power, allocation[i])
			}
		}
	}
	// Bigger budget ⇒ at least as much performance.
	if steps[0].Point.Perf < steps[2].Point.Perf {
		t.Error("larger budget should not perform worse")
	}
}

func TestPlanOverheadSuppressesChurn(t *testing.T) {
	cfg := pamaConfig(t)
	cfg.OverheadProc = 1e9
	cfg.OverheadFreq = 1e9
	tbl, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternating budget would churn without overhead accounting.
	allocation := []float64{0.5, 3, 0.5, 3, 0.5, 3}
	steps := tbl.Plan(allocation, 4.8)
	for _, s := range steps[1:] {
		if s.Switched && s.Point.Power > steps[s.Slot-1].Point.Power {
			t.Errorf("slot %d upgraded despite prohibitive overhead", s.Slot)
		}
	}
}

func TestOperatingPointString(t *testing.T) {
	p := OperatingPoint{N: 3, F: 40e6, V: 3.3, Power: 0.85, Perf: 1.2e8}
	s := p.String()
	if !strings.Contains(s, "n=3") || !strings.Contains(s, "40 MHz") {
		t.Errorf("String = %q", s)
	}
	if got := formatHz(1.5e9); got != "1.5 GHz" {
		t.Errorf("formatHz = %q", got)
	}
	if got := formatHz(2e3); got != "2 kHz" {
		t.Errorf("formatHz = %q", got)
	}
	if got := formatHz(50); got != "50 Hz" {
		t.Errorf("formatHz = %q", got)
	}
}

func TestContinuousRegimes(t *testing.T) {
	// A DVFS-capable curve so all four regimes exist.
	curve, err := power.NewLinearVF(1.0, 2.0, 100e6, 400e6)
	if err != nil {
		t.Fatal(err)
	}
	w, err := perf.NewWorkload(10, 1) // nStar = 2(10−1) = 18
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		System:        power.SystemModel{Proc: power.ProcessorModel{ActiveAtRef: 1, FRef: 400e6, VRef: 2, SleepPower: 0.1, StandbyPower: 0.01}, N: 32},
		Curve:         curve,
		Workload:      w,
		Frequencies:   []float64{100e6, 200e6, 400e6},
		MaxProcessors: 32,
	}
	law := cfg.System.Proc.Law()
	pLo := law.Single(100e6, 1.0) // one proc at (g(vmin), vmin)
	pHi := law.Single(400e6, 2.0)

	// Regime 1: below pLo → one processor at vmin, reduced f.
	pt, err := Continuous(cfg, pLo/2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.N != 1 || pt.V != 1.0 || pt.F >= 100e6 {
		t.Errorf("regime 1 point = %v", pt)
	}
	// Regime 2: a few pLo's worth → n grows at (g(vmin), vmin).
	pt, err = Continuous(cfg, 5*pLo)
	if err != nil {
		t.Fatal(err)
	}
	if pt.N != 5 || pt.F != 100e6 || pt.V != 1.0 {
		t.Errorf("regime 2 point = %v", pt)
	}
	// Regime 3: n pinned at 18, voltage rising.
	budget := 18 * (pLo + pHi) / 2
	pt, err = Continuous(cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if pt.N != 18 {
		t.Errorf("regime 3 n = %d, want 18", pt.N)
	}
	if pt.V <= 1.0 || pt.V >= 2.0 {
		t.Errorf("regime 3 voltage = %g, want interior", pt.V)
	}
	// The solved point's power matches the allowance.
	if !approx(pt.Power, budget, budget*1e-6) {
		t.Errorf("regime 3 power = %g, want %g", pt.Power, budget)
	}
	// Regime 4: beyond 18·pHi → n grows at (g(vmax), vmax).
	pt, err = Continuous(cfg, 25*pHi)
	if err != nil {
		t.Fatal(err)
	}
	if pt.N != 25 || pt.F != 400e6 || pt.V != 2.0 {
		t.Errorf("regime 4 point = %v", pt)
	}
}

func TestContinuousClampsToMaxProcessors(t *testing.T) {
	cfg := pamaConfig(t)
	pt, err := Continuous(cfg, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if pt.N > cfg.MaxProcessors {
		t.Errorf("Continuous exceeded MaxProcessors: %v", pt)
	}
}

func TestContinuousNegativeAllowance(t *testing.T) {
	if _, err := Continuous(pamaConfig(t), -1); err == nil {
		t.Error("negative allowance must error")
	}
}

func TestContinuousFullySerialStaysAtOne(t *testing.T) {
	cfg := pamaConfig(t)
	w, err := perf.NewWorkload(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	pt, err := Continuous(cfg, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if pt.N != 1 {
		t.Errorf("fully serial workload should use one processor: %v", pt)
	}
}

func TestContinuousPerfMonotoneInAllowance(t *testing.T) {
	cfg := pamaConfig(t)
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 5))
		b = math.Abs(math.Mod(b, 5))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		p1, err1 := Continuous(cfg, lo)
		p2, err2 := Continuous(cfg, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1.Perf <= p2.Perf*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

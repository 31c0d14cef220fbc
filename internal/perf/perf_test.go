package perf

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustWorkload(t *testing.T, total, serial float64) Workload {
	t.Helper()
	w, err := NewWorkload(total, serial)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(0, 0); err == nil {
		t.Error("zero total time must be rejected")
	}
	if _, err := NewWorkload(-1, 0); err == nil {
		t.Error("negative total time must be rejected")
	}
	if _, err := NewWorkload(10, -1); err == nil {
		t.Error("negative serial time must be rejected")
	}
	if _, err := NewWorkload(10, 11); err == nil {
		t.Error("serial > total must be rejected")
	}
	if _, err := NewWorkload(10, 10); err != nil {
		t.Error("fully serial workload is legal")
	}
}

func TestEffectiveFrequency(t *testing.T) {
	if EffectiveFrequency(80e6, 40e6) != 40e6 {
		t.Error("voltage cap must bind")
	}
	if EffectiveFrequency(20e6, 40e6) != 20e6 {
		t.Error("requested frequency must bind when below the cap")
	}
}

func TestSpeedupAmdahl(t *testing.T) {
	// 10% serial: classic Amdahl numbers.
	w := mustWorkload(t, 10, 1)
	if got := w.Speedup(1); !approx(got, 1, 1e-12) {
		t.Errorf("Speedup(1) = %g", got)
	}
	// S(n) = 10 / (1 + 9/n)
	if got := w.Speedup(9); !approx(got, 5, 1e-12) {
		t.Errorf("Speedup(9) = %g, want 5", got)
	}
	// Asymptote 1/serial-fraction = 10.
	if got := w.Speedup(1_000_000); got > 10 {
		t.Errorf("Speedup beyond Amdahl asymptote: %g", got)
	}
}

func TestSpeedupFullyParallel(t *testing.T) {
	w := mustWorkload(t, 8, 0)
	if got := w.Speedup(8); !approx(got, 8, 1e-12) {
		t.Errorf("perfectly parallel Speedup(8) = %g", got)
	}
}

func TestSpeedupPanicsOnBadN(t *testing.T) {
	w := mustWorkload(t, 10, 1)
	defer func() {
		if recover() == nil {
			t.Error("Speedup(0) must panic")
		}
	}()
	w.Speedup(0)
}

func TestPerformanceEq3(t *testing.T) {
	w := mustWorkload(t, 10, 1)
	// Perf doubles with frequency until the voltage cap binds.
	p20 := w.Performance(4, 20e6, 80e6)
	p40 := w.Performance(4, 40e6, 80e6)
	if !approx(p40, 2*p20, 1e-9) {
		t.Errorf("Perf(40MHz) = %g, want 2×Perf(20MHz) = %g", p40, 2*p20)
	}
	// Above the cap, g(v) binds.
	pCapped := w.Performance(4, 160e6, 80e6)
	p80 := w.Performance(4, 80e6, 80e6)
	if !approx(pCapped, p80, 1e-9) {
		t.Errorf("Perf above g(v) must be capped: %g vs %g", pCapped, p80)
	}
}

func TestPerformanceMonotoneInN(t *testing.T) {
	w := mustWorkload(t, 10, 1)
	prev := 0.0
	for n := 1; n <= 8; n++ {
		p := w.Performance(n, 80e6, 80e6)
		if p <= prev {
			t.Fatalf("Perf not increasing at n=%d", n)
		}
		prev = p
	}
}

func TestPerformanceAtNominal(t *testing.T) {
	w := mustWorkload(t, 10, 1)
	if got, want := w.PerformanceAtNominal(2, 40e6), w.Performance(2, 40e6, 80e6); !approx(got, want, 1e-9) {
		t.Errorf("nominal = %g, capped-above = %g", got, want)
	}
}

func TestC1Scaling(t *testing.T) {
	w := mustWorkload(t, 10, 1)
	w.C1 = 3
	base := mustWorkload(t, 10, 1)
	if got := w.Performance(2, 40e6, 80e6); !approx(got, 3*base.Performance(2, 40e6, 80e6), 1e-9) {
		t.Errorf("C1 must scale performance linearly: %g", got)
	}
}

func TestExecutionTimePaperCalibration(t *testing.T) {
	// The paper: 2K FFT = 4.8 s at 20 MHz on one processor.
	w := mustWorkload(t, 4.8, 4.8*0.1)
	if got := w.ExecutionTime(1, 20e6, 20e6); !approx(got, 4.8, 1e-12) {
		t.Errorf("reference time = %g, want 4.8", got)
	}
	// Quadruple the clock: a quarter of the time.
	if got := w.ExecutionTime(1, 80e6, 20e6); !approx(got, 1.2, 1e-12) {
		t.Errorf("80 MHz time = %g, want 1.2", got)
	}
}

func TestExecutionTimePanics(t *testing.T) {
	w := mustWorkload(t, 10, 1)
	for name, fn := range map[string]func(){
		"n=0":    func() { w.ExecutionTime(0, 1, 1) },
		"f=0":    func() { w.ExecutionTime(1, 0, 1) },
		"fRef=0": func() { w.ExecutionTime(1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestScalingRatio(t *testing.T) {
	w := mustWorkload(t, 10, 2) // Ts=2, Tt−Ts=8
	if got := w.ScalingRatio(4); !approx(got, 1, 1e-12) {
		t.Errorf("ScalingRatio(4) = %g, want 1", got)
	}
	if w.PreferFrequency(4) {
		t.Error("ratio 1 <= 2: processors should be preferred")
	}
	if !w.PreferFrequency(12) { // 12·2/8 = 3 > 2
		t.Error("ratio 3 > 2: frequency should be preferred")
	}
}

func TestScalingRatioFullySerial(t *testing.T) {
	w := mustWorkload(t, 5, 5)
	if !math.IsInf(w.ScalingRatio(1), 1) {
		t.Error("fully serial workload must have infinite scaling ratio")
	}
	if !w.PreferFrequency(1) {
		t.Error("fully serial workload must always prefer frequency")
	}
}

func TestOptimalProcessorsEq18(t *testing.T) {
	// Tt/Ts = 10 → 2(10−1) = 18, clamped to maxN.
	w := mustWorkload(t, 10, 1)
	if got := w.OptimalProcessors(8); got != 8 {
		t.Errorf("OptimalProcessors clamped = %d, want 8", got)
	}
	if got := w.OptimalProcessors(32); got != 18 {
		t.Errorf("OptimalProcessors = %d, want 18", got)
	}
	// Fully parallel: use everything.
	wp := mustWorkload(t, 10, 0)
	if got := wp.OptimalProcessors(8); got != 8 {
		t.Errorf("fully parallel = %d, want 8", got)
	}
	// Fully serial: 2(1−1) = 0, clamped to 1.
	ws := mustWorkload(t, 10, 10)
	if got := ws.OptimalProcessors(8); got != 1 {
		t.Errorf("fully serial = %d, want 1", got)
	}
}

func TestOptimalProcessorsPanics(t *testing.T) {
	w := mustWorkload(t, 10, 1)
	defer func() {
		if recover() == nil {
			t.Error("maxN < 1 must panic")
		}
	}()
	w.OptimalProcessors(0)
}

// Eq. 14 identity: the marginal ratio equals nTs/(Tt−Ts) + 1 and
// therefore never falls below 1 — the paper's Case 1 conclusion. With
// no serial work the ratio is exactly 1, which floating point may
// round to just under it, so both checks share one relative
// tolerance. quick.Check seeds from the clock, so the explicit case
// pins an input that failed an exact ratio >= 1 comparison.
func TestEquation14Identity(t *testing.T) {
	holds := func(tot, ser float64, n int) bool {
		w, err := NewWorkload(tot, ser)
		if err != nil {
			return false
		}
		ratio := w.MarginalPerfPerPowerFreq(n) / w.MarginalPerfPerPowerProc(n)
		want := w.ScalingRatio(n) + 1
		tol := 1e-6 * want
		return approx(ratio, want, tol) && ratio >= 1-tol
	}
	// The ratio computes to 0.99999999999999967 here.
	if !holds(13, 0, 23) {
		t.Error("Eq. 14 identity fails for Tt=13 Ts=0 n=23")
	}
	f := func(totRaw, serRaw float64, nRaw uint8) bool {
		tot := 1 + math.Mod(math.Abs(totRaw), 100)
		ser := math.Mod(math.Abs(serRaw), tot)
		if math.IsNaN(tot) || math.IsNaN(ser) || ser == tot {
			return true
		}
		return holds(tot, ser, 1+int(nRaw%32))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: speedup is monotone non-decreasing in n and bounded by
// Amdahl's asymptote Tt/Ts.
func TestSpeedupBoundsProperty(t *testing.T) {
	f := func(serRaw float64, nRaw uint8) bool {
		tot := 100.0
		ser := 1 + math.Mod(math.Abs(serRaw), 98)
		if math.IsNaN(ser) {
			return true
		}
		w, err := NewWorkload(tot, ser)
		if err != nil {
			return false
		}
		n := 1 + int(nRaw%64)
		s := w.Speedup(n)
		sNext := w.Speedup(n + 1)
		return s <= sNext+1e-12 && s <= tot/ser+1e-9 && s >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWorkloadAccessors(t *testing.T) {
	w := mustWorkload(t, 10, 4)
	if w.ParallelTime() != 6 {
		t.Errorf("ParallelTime = %g", w.ParallelTime())
	}
	if !approx(w.SerialFraction(), 0.4, 1e-12) {
		t.Errorf("SerialFraction = %g", w.SerialFraction())
	}
}

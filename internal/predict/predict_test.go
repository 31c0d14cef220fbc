package predict

import (
	"errors"
	"math"
	"testing"

	"dpm/internal/schedule"
	"dpm/internal/trace"
)

func grid(vals ...float64) *schedule.Grid { return schedule.NewGrid(4.8, vals) }

func TestLastPeriod(t *testing.T) {
	p := NewLastPeriod()
	if _, err := p.Predict(); err == nil {
		t.Error("prediction without history must error")
	}
	if err := p.Observe(grid(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	got, err := p.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(grid(1, 2, 3), 0) {
		t.Errorf("last-period = %v", got.Values)
	}
	// A newer period replaces the old.
	if err := p.Observe(grid(4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Predict()
	if !got.Equal(grid(4, 5, 6), 0) {
		t.Errorf("last-period after update = %v", got.Values)
	}
	if p.Name() != "last-period" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestLastPeriodGeometryCheck(t *testing.T) {
	p := NewLastPeriod()
	if err := p.Observe(grid(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(grid(1, 2, 3)); err == nil {
		t.Error("geometry change must be rejected")
	}
	if err := p.Observe(nil); err == nil {
		t.Error("nil observation must be rejected")
	}
}

func TestMovingAverage(t *testing.T) {
	p, err := NewMovingAverage(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(); err == nil {
		t.Error("prediction without history must error")
	}
	p.Observe(grid(2, 4))
	p.Observe(grid(4, 8))
	got, err := p.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(grid(3, 6), 1e-12) {
		t.Errorf("moving average = %v", got.Values)
	}
	// Window slides: a third observation evicts the first.
	p.Observe(grid(8, 0))
	got, _ = p.Predict()
	if !got.Equal(grid(6, 4), 1e-12) {
		t.Errorf("slid window = %v", got.Values)
	}
	if p.Name() != "moving-average(2)" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestMovingAverageValidation(t *testing.T) {
	if _, err := NewMovingAverage(0); err == nil {
		t.Error("window 0 must be rejected")
	}
}

func TestExponential(t *testing.T) {
	p, err := NewExponential(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(); err == nil {
		t.Error("prediction without history must error")
	}
	p.Observe(grid(4))
	p.Observe(grid(8))
	got, _ := p.Predict()
	if math.Abs(got.Values[0]-6) > 1e-12 { // 0.5·8 + 0.5·4
		t.Errorf("exponential = %v", got.Values)
	}
	if p.Name() != "exponential(0.50)" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestExponentialValidation(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Error("alpha 0 must be rejected")
	}
	if _, err := NewExponential(1.5); err == nil {
		t.Error("alpha > 1 must be rejected")
	}
	if _, err := NewExponential(1); err != nil {
		t.Error("alpha 1 is legal (degenerates to last-period)")
	}
}

func TestEvaluate(t *testing.T) {
	e, err := Evaluate(grid(1, 2, 3), grid(1, 2, 3))
	if err != nil || e.MAE != 0 || e.RMSE != 0 || e.Peak != 0 {
		t.Errorf("perfect prediction errors = %+v, %v", e, err)
	}
	e, err = Evaluate(grid(0, 0), grid(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.MAE-3.5) > 1e-12 || math.Abs(e.RMSE-math.Sqrt(12.5)) > 1e-12 || e.Peak != 4 {
		t.Errorf("errors = %+v", e)
	}
	if _, err := Evaluate(grid(1), grid(1, 2)); err == nil {
		t.Error("geometry mismatch must error")
	}
}

func TestBacktestOnNoisyScenario(t *testing.T) {
	// Periods are the scenario I charging schedule with seeded jitter;
	// averaging predictors must beat last-period on mean RMSE.
	base := trace.ScenarioI().Charging
	var periods []*schedule.Grid
	for i := int64(0); i < 12; i++ {
		periods = append(periods, trace.Perturb(base, 0.3, 100+i))
	}

	last := NewLastPeriod()
	avg, err := NewMovingAverage(6)
	if err != nil {
		t.Fatal(err)
	}
	lastErrs, err := Backtest(last, periods)
	if err != nil {
		t.Fatal(err)
	}
	avgErrs, err := Backtest(avg, periods)
	if err != nil {
		t.Fatal(err)
	}
	// The moving average scores only once its 6-period window is full,
	// so its backtest covers periods 6..11 — compare last-period over
	// the same evaluated periods.
	if len(lastErrs) != 11 || len(avgErrs) != 6 {
		t.Fatalf("backtest lengths %d/%d", len(lastErrs), len(avgErrs))
	}
	if MeanRMSE(avgErrs) >= MeanRMSE(lastErrs[5:]) {
		t.Errorf("moving average RMSE %.3f should beat last-period %.3f on i.i.d. jitter",
			MeanRMSE(avgErrs), MeanRMSE(lastErrs[5:]))
	}
}

func TestBacktestValidation(t *testing.T) {
	if _, err := Backtest(NewLastPeriod(), []*schedule.Grid{grid(1)}); err == nil {
		t.Error("single-period backtest must error")
	}
}

func TestMeanRMSEEmpty(t *testing.T) {
	if MeanRMSE(nil) != 0 {
		t.Error("empty MeanRMSE must be 0")
	}
}

func TestMovingAveragePredictBeforeWindow(t *testing.T) {
	// A Predict before the window fills must return a typed
	// InsufficientHistoryError carrying the exact have/need counts, and
	// succeed on the observation that completes the window.
	for _, tc := range []struct {
		k, observed int
	}{
		{1, 0},
		{2, 1},
		{3, 2},
		{6, 5},
		{6, 0},
	} {
		p := mustMA(t, tc.k)
		for i := 0; i < tc.observed; i++ {
			if err := p.Observe(grid(1, 2)); err != nil {
				t.Fatal(err)
			}
		}
		_, err := p.Predict()
		var ihe *InsufficientHistoryError
		if !errors.As(err, &ihe) {
			t.Fatalf("MA(%d) after %d observations: err = %v, want InsufficientHistoryError",
				tc.k, tc.observed, err)
		}
		if ihe.Have != tc.observed || ihe.Need != tc.k {
			t.Errorf("MA(%d) after %d observations: have/need = %d/%d", tc.k, tc.observed, ihe.Have, ihe.Need)
		}
		if !IsInsufficientHistory(err) {
			t.Error("IsInsufficientHistory must match the typed error")
		}
		// One more observation completes the window.
		for i := tc.observed; i < tc.k; i++ {
			if err := p.Observe(grid(1, 2)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Predict(); err != nil {
			t.Errorf("MA(%d) with a full window: %v", tc.k, err)
		}
	}
}

func TestTypedGeometryErrors(t *testing.T) {
	for _, tc := range []struct {
		name              string
		err               error
		op                string
		wantLen, gotLen   int
		wantStep, gotStep float64
	}{
		{
			name: "evaluate length mismatch",
			err: func() error {
				_, err := Evaluate(grid(1), grid(1, 2))
				return err
			}(),
			op: "evaluate", wantLen: 2, gotLen: 1, wantStep: 4.8, gotStep: 4.8,
		},
		{
			name: "evaluate step mismatch",
			err: func() error {
				_, err := Evaluate(schedule.NewGrid(1, []float64{1, 2}), grid(1, 2))
				return err
			}(),
			op: "evaluate", wantLen: 2, gotLen: 2, wantStep: 4.8, gotStep: 1,
		},
		{
			name: "observe geometry change",
			err: func() error {
				p := NewLastPeriod()
				if err := p.Observe(grid(1, 2)); err != nil {
					return err
				}
				return p.Observe(grid(1, 2, 3))
			}(),
			op: "observe", wantLen: 2, gotLen: 3, wantStep: 4.8, gotStep: 4.8,
		},
	} {
		var ge *GeometryError
		if !errors.As(tc.err, &ge) {
			t.Fatalf("%s: err = %v, want GeometryError", tc.name, tc.err)
		}
		if ge.Op != tc.op || ge.WantLen != tc.wantLen || ge.GotLen != tc.gotLen ||
			ge.WantStep != tc.wantStep || ge.GotStep != tc.gotStep {
			t.Errorf("%s: %+v", tc.name, ge)
		}
	}
}

func TestBacktestSkipsWarmup(t *testing.T) {
	// A window larger than the history observes every period but never
	// scores one; the backtest returns zero errors, not a failure.
	p := mustMA(t, 10)
	periods := []*schedule.Grid{grid(1), grid(2), grid(3)}
	errs, err := Backtest(p, periods)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 {
		t.Errorf("backtest inside warm-up scored %d periods, want 0", len(errs))
	}
}

func TestPredictorsReturnCopies(t *testing.T) {
	for _, p := range []Predictor{NewLastPeriod(), mustMA(t, 1), mustExp(t, 0.3)} {
		if err := p.Observe(grid(1, 2)); err != nil {
			t.Fatal(err)
		}
		got, err := p.Predict()
		if err != nil {
			t.Fatal(err)
		}
		got.Values[0] = 99
		again, _ := p.Predict()
		if again.Values[0] == 99 {
			t.Errorf("%s: Predict must return an independent copy", p.Name())
		}
	}
}

func mustMA(t *testing.T, k int) *MovingAverage {
	t.Helper()
	p, err := NewMovingAverage(k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustExp(t *testing.T, a float64) *Exponential {
	t.Helper()
	p, err := NewExponential(a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAdvance(t *testing.T) {
	current := grid(5, 5)
	if got, err := Advance(nil, grid(1, 2), current); err != nil || got != current {
		t.Errorf("nil predictor: %v, %v; want the current expectation", got, err)
	}
	// A moving average over two periods keeps the current expectation
	// through its warm-up, then forecasts.
	p := mustMA(t, 2)
	if got, err := Advance(p, grid(1, 2), current); err != nil || got != current {
		t.Errorf("warming up: %v, %v; want the current expectation", got, err)
	}
	got, err := Advance(p, grid(3, 4), current)
	if err != nil || !got.Equal(grid(2, 3), 1e-12) {
		t.Errorf("full window: %v, %v; want the mean [2 3]", got, err)
	}
	var ge *GeometryError
	if _, err := Advance(p, grid(1, 2, 3), current); !errors.As(err, &ge) {
		t.Errorf("mismatched period: err = %v, want *GeometryError", err)
	}
}

// Package predict derives the *expected* schedules the power manager
// plans with from recorded history. The paper's §2 leaves the
// derivation open — "the recorded charging power for the previous
// period or weighted average of the several previous periods can be
// used" — and this package provides exactly those estimators plus
// exponential smoothing, with accuracy metrics so deployments can
// pick one against their own traces.
//
// All predictors work slot-wise on period-aligned grids: given the
// per-slot observations of past periods, predict the next period's
// per-slot values.
package predict

import (
	"errors"
	"fmt"
	"math"

	"dpm/internal/schedule"
)

// InsufficientHistoryError reports a Predict call before the
// predictor has observed enough periods to estimate from. Callers
// feeding live telemetry hit this on every cold start; they should
// fall back to their prior expectation (errors.As) rather than fail.
type InsufficientHistoryError struct {
	// Predictor is the estimator's Name().
	Predictor string
	// Have and Need count observed vs required periods.
	Have, Need int
}

func (e *InsufficientHistoryError) Error() string {
	return fmt.Sprintf("predict: %s has %d of %d required observed periods",
		e.Predictor, e.Have, e.Need)
}

// IsInsufficientHistory reports whether err is (or wraps) an
// InsufficientHistoryError.
func IsInsufficientHistory(err error) bool {
	var ihe *InsufficientHistoryError
	return errors.As(err, &ihe)
}

// GeometryError reports two grids whose slot geometry (step or
// length) does not line up — an observation against the established
// history, or a prediction against its realization.
type GeometryError struct {
	// Op names the failing operation ("observe" or "evaluate").
	Op string
	// WantLen/WantStep describe the established geometry,
	// GotLen/GotStep the incompatible grid.
	WantLen  int
	WantStep float64
	GotLen   int
	GotStep  float64
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("predict: %s grid %d×%gs does not match %d×%gs",
		e.Op, e.GotLen, e.GotStep, e.WantLen, e.WantStep)
}

// Predictor estimates the next period's per-slot schedule from the
// observed history. Observe is called once per completed period, in
// order; Predict may be called at any time.
type Predictor interface {
	// Observe records one completed period's per-slot observations.
	Observe(period *schedule.Grid) error
	// Predict returns the estimate for the next period, or an error
	// if no history has been observed yet.
	Predict() (*schedule.Grid, error)
	// Name identifies the predictor in reports.
	Name() string
}

// Advance is the per-period warm-up rule of every closed loop that
// re-plans from history: it feeds p the period just completed and
// returns the expectation to plan the next period with — p's
// forecast, or current while p still lacks the history it needs
// (IsInsufficientHistory) or when p is nil.
func Advance(p Predictor, period, current *schedule.Grid) (*schedule.Grid, error) {
	if p == nil {
		return current, nil
	}
	if err := p.Observe(period); err != nil {
		return nil, err
	}
	predicted, err := p.Predict()
	switch {
	case IsInsufficientHistory(err):
		return current, nil
	case err != nil:
		return nil, err
	}
	return predicted, nil
}

// checkCompatible verifies a new observation against the established
// geometry.
func checkCompatible(have *schedule.Grid, incoming *schedule.Grid) error {
	if incoming == nil {
		return fmt.Errorf("predict: nil observation")
	}
	if have != nil && (have.Step != incoming.Step || have.Len() != incoming.Len()) {
		return &GeometryError{
			Op:      "observe",
			WantLen: have.Len(), WantStep: have.Step,
			GotLen: incoming.Len(), GotStep: incoming.Step,
		}
	}
	return nil
}

// LastPeriod predicts that the next period repeats the previous one —
// the paper's first suggestion.
type LastPeriod struct {
	last *schedule.Grid
}

// NewLastPeriod returns an empty last-period predictor.
func NewLastPeriod() *LastPeriod { return &LastPeriod{} }

// Name implements Predictor.
func (p *LastPeriod) Name() string { return "last-period" }

// Observe implements Predictor.
func (p *LastPeriod) Observe(period *schedule.Grid) error {
	if err := checkCompatible(p.last, period); err != nil {
		return err
	}
	p.last = period.Clone()
	return nil
}

// Predict implements Predictor.
func (p *LastPeriod) Predict() (*schedule.Grid, error) {
	if p.last == nil {
		return nil, &InsufficientHistoryError{Predictor: p.Name(), Have: 0, Need: 1}
	}
	return p.last.Clone(), nil
}

// MovingAverage predicts each slot as the mean of that slot over the
// last K observed periods — the paper's "weighted average of the
// several previous periods" with uniform weights.
type MovingAverage struct {
	k       int
	history []*schedule.Grid
}

// NewMovingAverage returns a predictor averaging the last k periods
// (k ≥ 1).
func NewMovingAverage(k int) (*MovingAverage, error) {
	if k < 1 {
		return nil, fmt.Errorf("predict: window %d < 1", k)
	}
	return &MovingAverage{k: k}, nil
}

// Name implements Predictor.
func (p *MovingAverage) Name() string { return fmt.Sprintf("moving-average(%d)", p.k) }

// Observe implements Predictor.
func (p *MovingAverage) Observe(period *schedule.Grid) error {
	var have *schedule.Grid
	if len(p.history) > 0 {
		have = p.history[0]
	}
	if err := checkCompatible(have, period); err != nil {
		return err
	}
	p.history = append(p.history, period.Clone())
	if len(p.history) > p.k {
		p.history = p.history[len(p.history)-p.k:]
	}
	return nil
}

// Predict implements Predictor. The window must be full: averaging a
// partial window silently over-weights the cold-start periods, so a
// Predict before k observations returns an InsufficientHistoryError
// the caller can fall back on instead of a zero-confidence grid.
func (p *MovingAverage) Predict() (*schedule.Grid, error) {
	if len(p.history) < p.k {
		return nil, &InsufficientHistoryError{Predictor: p.Name(), Have: len(p.history), Need: p.k}
	}
	out := p.history[0].Clone()
	for _, g := range p.history[1:] {
		out = out.Add(g)
	}
	return out.Scale(1 / float64(len(p.history))), nil
}

// Exponential predicts with exponentially weighted smoothing:
// estimate ← α·observation + (1−α)·estimate, per slot.
type Exponential struct {
	alpha    float64
	estimate *schedule.Grid
}

// NewExponential returns a smoother with weight alpha in (0, 1].
func NewExponential(alpha float64) (*Exponential, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("predict: alpha %g outside (0, 1]", alpha)
	}
	return &Exponential{alpha: alpha}, nil
}

// Name implements Predictor.
func (p *Exponential) Name() string { return fmt.Sprintf("exponential(%.2f)", p.alpha) }

// Observe implements Predictor.
func (p *Exponential) Observe(period *schedule.Grid) error {
	if err := checkCompatible(p.estimate, period); err != nil {
		return err
	}
	if p.estimate == nil {
		p.estimate = period.Clone()
		return nil
	}
	for i := range p.estimate.Values {
		p.estimate.Values[i] = p.alpha*period.Values[i] + (1-p.alpha)*p.estimate.Values[i]
	}
	return nil
}

// Predict implements Predictor.
func (p *Exponential) Predict() (*schedule.Grid, error) {
	if p.estimate == nil {
		return nil, &InsufficientHistoryError{Predictor: p.Name(), Have: 0, Need: 1}
	}
	return p.estimate.Clone(), nil
}

// Accuracy metrics ---------------------------------------------------

// Errors quantifies one prediction against the realized period.
type Errors struct {
	// MAE is the mean absolute per-slot error.
	MAE float64
	// RMSE is the root-mean-square per-slot error.
	RMSE float64
	// Peak is the largest absolute per-slot error.
	Peak float64
}

// Evaluate compares a prediction with the realized period. Nil grids
// or mismatched geometry return a typed *GeometryError.
func Evaluate(predicted, actual *schedule.Grid) (Errors, error) {
	if predicted == nil || actual == nil {
		return Errors{}, fmt.Errorf("predict: evaluating nil grid")
	}
	if predicted.Step != actual.Step || predicted.Len() != actual.Len() {
		return Errors{}, &GeometryError{
			Op:      "evaluate",
			WantLen: actual.Len(), WantStep: actual.Step,
			GotLen: predicted.Len(), GotStep: predicted.Step,
		}
	}
	var e Errors
	sumSq := 0.0
	for i := range predicted.Values {
		d := math.Abs(predicted.Values[i] - actual.Values[i])
		e.MAE += d
		sumSq += d * d
		e.Peak = math.Max(e.Peak, d)
	}
	n := float64(predicted.Len())
	e.MAE /= n
	e.RMSE = math.Sqrt(sumSq / n)
	return e, nil
}

// Backtest replays a sequence of realized periods through a
// predictor: for each period after the first, it predicts, compares
// against the realization, then observes it. Periods the predictor
// cannot yet estimate (InsufficientHistoryError — e.g. a
// moving-average window still filling) are observed but not scored,
// so the returned slice holds at most len(periods) − 1 entries and
// exactly the periods the predictor was warmed up for.
func Backtest(p Predictor, periods []*schedule.Grid) ([]Errors, error) {
	if len(periods) < 2 {
		return nil, fmt.Errorf("predict: backtest needs at least 2 periods, got %d", len(periods))
	}
	if err := p.Observe(periods[0]); err != nil {
		return nil, err
	}
	out := make([]Errors, 0, len(periods)-1)
	for _, actual := range periods[1:] {
		predicted, err := p.Predict()
		switch {
		case IsInsufficientHistory(err):
			// Warm-up: nothing to score yet, keep feeding history.
		case err != nil:
			return nil, err
		default:
			e, err := Evaluate(predicted, actual)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		if err := p.Observe(actual); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MeanRMSE averages the RMSE over a backtest run.
func MeanRMSE(errs []Errors) float64 {
	if len(errs) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range errs {
		sum += e.RMSE
	}
	return sum / float64(len(errs))
}

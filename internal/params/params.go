// Package params implements the paper's system-parameter computation
// (§4.2): given a power allocation, choose the number of active
// processors n and the common clock frequency f (the voltage follows
// from f via Eq. 11) that maximize performance for that power.
//
// Two forms are provided, matching the paper:
//
//   - Continuous (Eq. 18): the closed-form optimum when n and f vary
//     continuously and switching is free, built on the §4.2 partial-
//     derivative analysis (frequency is the better lever below
//     g(vmin); above it, processors win until n reaches the crossover
//     2(Tt/Ts − 1)).
//   - Discrete (Algorithm 2): enumerate the (n, f) pairs a real board
//     offers, Pareto-prune the power/performance table, then walk the
//     allocation schedule switching points only when the gain beats
//     the switching overhead.
package params

import (
	"fmt"
	"math"
	"sort"

	"dpm/internal/perf"
	"dpm/internal/power"
)

// OperatingPoint is one (n, f) configuration with its derived
// voltage, power draw and performance.
type OperatingPoint struct {
	// N is the number of active processors.
	N int
	// F is the common clock frequency in hertz (0 when N == 0).
	F float64
	// V is the Eq. 11 supply voltage in volts (0 when N == 0).
	V float64
	// Power is the system draw at this point in watts (including
	// stand-by power of inactive processors).
	Power float64
	// Perf is the Eq. 3 performance at this point.
	Perf float64
}

// String renders the point compactly.
func (p OperatingPoint) String() string {
	return fmt.Sprintf("(n=%d, f=%s, v=%.2f V, %.3f W, perf %.3g)",
		p.N, formatHz(p.F), p.V, p.Power, p.Perf)
}

func formatHz(f float64) string {
	switch {
	case f >= 1e9:
		return fmt.Sprintf("%g GHz", f/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%g MHz", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%g kHz", f/1e3)
	default:
		return fmt.Sprintf("%g Hz", f)
	}
}

// Config describes the hardware and workload the selector optimizes
// for.
type Config struct {
	// System is the board's power model.
	System power.SystemModel
	// Curve is the frequency/voltage relationship g(v).
	Curve power.VFCurve
	// Workload is the Amdahl profile of the application.
	Workload perf.Workload
	// Frequencies are the selectable clock frequencies in hertz
	// (the paper's board offers 20, 40 and 80 MHz). Zero entries
	// are rejected; "off" is expressed through MinProcessors = 0.
	Frequencies []float64
	// MaxProcessors is the largest usable processor count (the
	// paper uses 7 of 8; one chip is the controller).
	MaxProcessors int
	// MinProcessors is the smallest allowed count; 0 permits an
	// all-idle point with zero performance.
	MinProcessors int
	// OverheadProc is OHn: the energy cost in joules of changing
	// the active-processor count by any amount at a boundary.
	OverheadProc float64
	// OverheadFreq is OHf: the energy cost in joules of a frequency
	// change (the paper's FPGA-mediated change costs more than a
	// mode change).
	OverheadFreq float64
	// PerfValue converts performance gain × τ into joules for the
	// Algorithm 2 line 14–22 switching test. Zero means 1.
	PerfValue float64
	// IdleSleep parks inactive processors in sleep mode (DRAM
	// retained, 393 mW on the M32R/D) instead of stand-by (6.6 mW).
	// The paper's simulation does not use sleep; the machine model
	// pays a DRAM-reload penalty when waking from stand-by, which is
	// the tradeoff this knob exposes.
	IdleSleep bool
}

// idleMode returns the mode inactive processors park in.
func (c Config) idleMode() power.Mode {
	if c.IdleSleep {
		return power.ModeSleep
	}
	return power.ModeStandby
}

func (c Config) validate() error {
	if c.Curve == nil {
		return fmt.Errorf("params: nil VF curve")
	}
	if len(c.Frequencies) == 0 {
		return fmt.Errorf("params: no selectable frequencies")
	}
	for _, f := range c.Frequencies {
		if f <= 0 {
			return fmt.Errorf("params: non-positive frequency %g", f)
		}
	}
	if c.MaxProcessors < 1 || c.MaxProcessors > c.System.N {
		return fmt.Errorf("params: MaxProcessors %d outside [1, %d]", c.MaxProcessors, c.System.N)
	}
	if c.MinProcessors < 0 || c.MinProcessors > c.MaxProcessors {
		return fmt.Errorf("params: MinProcessors %d outside [0, %d]", c.MinProcessors, c.MaxProcessors)
	}
	if c.OverheadProc < 0 || c.OverheadFreq < 0 {
		return fmt.Errorf("params: negative overhead (%g, %g)", c.OverheadProc, c.OverheadFreq)
	}
	return nil
}

// TakeSwitch is Algorithm 2's lines 14–22 switching test, the one
// copy every operating-point chooser applies: Table.ShouldSwitch, the
// columnar PlanInto walk and the per-processor manager in package dpm.
// The caller has already found the candidate different from the
// current point and priced the move at cost joules. A move to a point
// that draws less power is always taken: staying would overdraw the
// allocation. A move up is taken only if the performance gained over
// one slot of length tau, valued at PerfValue joules per perf·second,
// exceeds the cost.
func (c Config) TakeSwitch(fromPower, fromPerf, toPower, toPerf, tau, cost float64) bool {
	if toPower < fromPower {
		return true
	}
	return (toPerf-fromPerf)*tau*c.perfValue() > cost
}

func (c Config) perfValue() float64 {
	if c.PerfValue == 0 {
		return 1
	}
	return c.PerfValue
}

// Table is the Pareto frontier of operating points, sorted by
// ascending power (and therefore ascending performance).
//
// Alongside the point structs the table carries columnar copies of
// the power and performance coordinates (powers[i] == points[i].Power,
// perfs[i] == points[i].Perf, both strictly increasing). The per-slot
// selection and switching tests in Select/SelectCovering/Plan walk
// these contiguous []float64 columns — a branch-light binary search
// with no interface calls or 40-byte struct loads — and only touch
// the full OperatingPoint once a slot's index is settled. The columns
// are built once in BuildTable and immutable afterwards, so they are
// shared across every caller of a memoized table (see TableCache).
type Table struct {
	points []OperatingPoint
	powers []float64
	perfs  []float64
	cfg    Config
}

// BuildTable enumerates every (n, f) pair (Algorithm 2 lines 1–2) and
// removes dominated points — pairs that cost at least as much power
// for no more performance (lines 3–5).
func BuildTable(cfg Config) (*Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var pts []OperatingPoint
	if cfg.MinProcessors == 0 {
		pts = append(pts, OperatingPoint{
			N:     0,
			Power: cfg.System.HomogeneousPowerIdle(0, 0, 0, cfg.idleMode()),
			Perf:  0,
		})
	}
	lo := cfg.MinProcessors
	if lo == 0 {
		lo = 1
	}
	for n := lo; n <= cfg.MaxProcessors; n++ {
		for _, f := range cfg.Frequencies {
			v, err := cfg.Curve.VoltageFor(f)
			if err != nil {
				// Frequency unreachable at any legal voltage: skip.
				continue
			}
			gv := cfg.Curve.MaxFrequency(v)
			pts = append(pts, OperatingPoint{
				N:     n,
				F:     f,
				V:     v,
				Power: cfg.System.HomogeneousPowerIdle(n, f, v, cfg.idleMode()),
				Perf:  cfg.Workload.Performance(n, f, gv),
			})
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("params: no reachable operating points")
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Power != pts[j].Power {
			return pts[i].Power < pts[j].Power
		}
		return pts[i].Perf > pts[j].Perf
	})
	// Keep only points with strictly increasing performance.
	frontier := pts[:1]
	for _, p := range pts[1:] {
		if p.Perf > frontier[len(frontier)-1].Perf {
			frontier = append(frontier, p)
		}
	}
	// The table may outlive (and be shared across) callers — see
	// TableCache — so deep-copy the one slice the retained cfg holds:
	// a caller mutating its Frequencies afterwards must not reach into
	// the built table.
	cfg.Frequencies = append([]float64(nil), cfg.Frequencies...)
	t := &Table{
		points: append([]OperatingPoint(nil), frontier...),
		powers: make([]float64, len(frontier)),
		perfs:  make([]float64, len(frontier)),
		cfg:    cfg,
	}
	for i, p := range t.points {
		t.powers[i] = p.Power
		t.perfs[i] = p.Perf
	}
	return t, nil
}

// Points returns the frontier, cheapest first. The slice is shared;
// callers must not modify it.
func (t *Table) Points() []OperatingPoint { return t.points }

// Len returns the number of frontier points.
func (t *Table) Len() int { return len(t.points) }

// selectIdx returns the frontier index of the last affordable point:
// the predicate and bisection are exactly sort.Search's over
// "powers[i] > budget", inlined onto the contiguous powers column so
// the per-slot walk closes over no function values and loads 8 bytes
// per probe instead of a 48-byte struct.
func (t *Table) selectIdx(budget float64) int {
	lo, hi := 0, len(t.powers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.powers[mid] > budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// coveringIdx is selectIdx's counterpart for SelectCovering: the
// first point whose power is at least demand (sort.Search over
// "powers[i] >= demand"), clamped to the board's maximum point.
func (t *Table) coveringIdx(demand float64) int {
	lo, hi := 0, len(t.powers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.powers[mid] >= demand {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(t.powers) {
		return len(t.powers) - 1
	}
	return lo
}

// Select returns the best-performing point whose power does not
// exceed budget (Algorithm 2 lines 6–9). If even the cheapest point
// exceeds the budget, that cheapest point is returned — the system
// cannot draw less than its floor.
func (t *Table) Select(budget float64) OperatingPoint {
	return t.points[t.selectIdx(budget)]
}

// SelectCovering returns the cheapest point whose power is at least
// demand, or the board's maximum point when nothing covers it. The
// baseline uses it to meet demand as it arrives; the manager uses it
// when the battery is about to overflow and rounding the draw *up*
// turns otherwise-wasted charge into work.
func (t *Table) SelectCovering(demand float64) OperatingPoint {
	return t.points[t.coveringIdx(demand)]
}

// SwitchCost returns the energy overhead in joules of moving between
// two operating points: OHn if the processor count changes, plus OHf
// if the frequency changes.
func (t *Table) SwitchCost(from, to OperatingPoint) float64 {
	cost := 0.0
	if from.N != to.N {
		cost += t.cfg.OverheadProc
	}
	if from.F != to.F && from.N != 0 && to.N != 0 {
		cost += t.cfg.OverheadFreq
	}
	return cost
}

// ShouldSwitch applies Algorithm 2's switching test (TakeSwitch) to a
// move between two table points priced by SwitchCost.
func (t *Table) ShouldSwitch(from, to OperatingPoint, tau float64) bool {
	return from != to && t.cfg.TakeSwitch(from.Power, from.Perf, to.Power, to.Perf, tau, t.SwitchCost(from, to))
}

// PlanStep is one slot of a parameter plan.
type PlanStep struct {
	// Slot is the slot index within the period.
	Slot int
	// Allocated is the slot's power allocation in watts.
	Allocated float64
	// Point is the chosen operating point.
	Point OperatingPoint
	// Switched reports whether the point changed at this boundary.
	Switched bool
	// OverheadEnergy is the switching energy charged at this
	// boundary in joules.
	OverheadEnergy float64
}

// Plan walks a power-allocation grid and picks an operating point
// per slot, applying the overhead-aware switching rule. The returned
// steps include the energy actually drawn, which the dpm package's
// Algorithm 3 uses to redistribute the discretization error.
func (t *Table) Plan(allocation []float64, tau float64) []PlanStep {
	return t.PlanInto(make([]PlanStep, len(allocation)), allocation, tau)
}

// PlanInto is Plan writing into dst, which must have len(allocation)
// entries; it returns dst. The walk is columnar: each slot's
// selection binary-searches the contiguous powers column. Frontier
// performance is strictly increasing, so distinct indices are
// distinct points and only a changed index reaches the switching
// test, which reads the columnar powers/perfs. The per-slot loop
// carries one integer of state and touches the 48-byte point structs
// only to price a switch and to write the chosen step.
func (t *Table) PlanInto(dst []PlanStep, allocation []float64, tau float64) []PlanStep {
	current := 0
	for i, budget := range allocation {
		candidate := t.selectIdx(budget)
		switched := false
		overhead := 0.0
		if i == 0 {
			current = candidate
		} else if candidate != current {
			cost := t.SwitchCost(t.points[current], t.points[candidate])
			if t.cfg.TakeSwitch(t.powers[current], t.perfs[current], t.powers[candidate], t.perfs[candidate], tau, cost) {
				overhead = cost
				current = candidate
				switched = true
			}
		}
		dst[i] = PlanStep{
			Slot:           i,
			Allocated:      budget,
			Point:          t.points[current],
			Switched:       switched,
			OverheadEnergy: overhead,
		}
	}
	return dst
}

// Continuous computes the Eq. 18 closed-form parameters for a given
// power allowance, assuming continuous n and f and no switching
// overhead. It returns the (real-valued before flooring) processor
// count and the frequency/voltage pair.
//
// The four regimes of Eq. 18, in order of growing power:
//
//  1. below the single-processor draw at (g(vmin), vmin): one
//     processor, frequency proportional to power, voltage at vmin;
//  2. add processors at fixed (g(vmin), vmin) until the crossover
//     n* = 2(Tt/Ts − 1);
//  3. hold n = n* and raise voltage (and with it f = g(v));
//  4. at (g(vmax), vmax), grow the processor count again.
//
// The paper's printed fourth branch reuses g(vmin)·v²min in the
// divisor; we use g(vmax)·v²max, which is the dimensionally
// consistent continuation (each processor now costs the vmax-point
// power). This substitution is recorded in DESIGN.md.
func Continuous(cfg Config, allowance float64) (OperatingPoint, error) {
	if err := cfg.validate(); err != nil {
		return OperatingPoint{}, err
	}
	if allowance < 0 {
		return OperatingPoint{}, fmt.Errorf("params: negative power allowance %g", allowance)
	}
	law := cfg.System.Proc.Law()
	c2 := law.C2
	vmin, vmax := cfg.Curve.VMin(), cfg.Curve.VMax()
	fLo := cfg.Curve.MaxFrequency(vmin) // g(vmin)
	fHi := cfg.Curve.MaxFrequency(vmax) // g(vmax)
	pLo := c2 * fLo * vmin * vmin       // one processor at (g(vmin), vmin)
	pHi := c2 * fHi * vmax * vmax       // one processor at (g(vmax), vmax)

	w := cfg.Workload
	var nStar float64
	if w.SerialTime == 0 {
		nStar = math.Inf(1)
	} else {
		nStar = 2 * (w.TotalTime/w.SerialTime - 1)
	}
	if nStar < 1 {
		nStar = 1
	}

	maxN := cfg.MaxProcessors
	if w.ParallelTime() == 0 {
		// §4.2: with no parallel work there is never a reason to add
		// processors.
		maxN = 1
	}
	clampN := func(n int) int {
		if n < 1 {
			n = 1
		}
		if n > maxN {
			n = maxN
		}
		return n
	}

	mk := func(n int, f, v float64) OperatingPoint {
		gv := cfg.Curve.MaxFrequency(v)
		return OperatingPoint{
			N: n, F: f, V: v,
			Power: law.System(n, f, v),
			Perf:  w.Performance(n, f, gv),
		}
	}

	switch {
	case allowance < pLo:
		// Regime 1: one processor below g(vmin).
		f := allowance / (c2 * vmin * vmin)
		return mk(1, f, vmin), nil
	case allowance < nStar*pLo:
		// Regime 2: processors at (g(vmin), vmin).
		n := clampN(int(allowance / pLo))
		return mk(n, fLo, vmin), nil
	case allowance < nStar*pHi && !math.IsInf(nStar, 1):
		// Regime 3: n pinned at the crossover; solve
		// n·c2·g(v)·v² = allowance for v by bisection (monotone).
		n := clampN(int(nStar))
		target := allowance / float64(n)
		lo, hi := vmin, vmax
		for i := 0; i < 64 && hi-lo > 1e-12; i++ {
			mid := (lo + hi) / 2
			if c2*cfg.Curve.MaxFrequency(mid)*mid*mid < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		v := (lo + hi) / 2
		return mk(n, cfg.Curve.MaxFrequency(v), v), nil
	default:
		// Regime 4: everything at (g(vmax), vmax); grow n.
		n := clampN(int(allowance / pHi))
		return mk(n, fHi, vmax), nil
	}
}

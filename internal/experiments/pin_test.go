package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dpm/internal/battery"
	"dpm/internal/dpm"
	"dpm/internal/params"
	"dpm/internal/predict"
	"dpm/internal/schedule"
	"dpm/internal/trace"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/slotloop.pins")

const pinFile = "testdata/slotloop.pins"

// bitHash digests the exact IEEE-754 bits of every value a run
// produces, so a pin catches a change in the last place of any float.
type bitHash struct{ h hash.Hash }

func newBitHash() *bitHash { return &bitHash{h: sha256.New()} }

func (b *bitHash) floats(xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		b.h.Write(buf[:])
	}
}

func (b *bitHash) ints(xs ...int) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		b.h.Write(buf[:])
	}
}

func (b *bitHash) point(p params.OperatingPoint) {
	b.ints(p.N)
	b.floats(p.F, p.V, p.Power, p.Perf)
}

func (b *bitHash) snapshot(s battery.Snapshot) {
	b.floats(s.Charge, s.Wasted, s.Undersupplied, s.TotalSupplied, s.TotalDrawn, s.Utilization)
}

func (b *bitHash) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

func hashSim(res *dpm.SimResult) string {
	b := newBitHash()
	b.ints(len(res.Records), res.Switches)
	for _, r := range res.Records {
		b.floats(r.Time, r.Planned)
		b.point(r.Point)
		b.floats(r.UsedPower, r.SuppliedPower, r.Charge)
		b.ints(len(r.Plan))
		b.floats(r.Plan...)
	}
	b.snapshot(res.Battery)
	b.floats(res.PerfSeconds)
	return b.sum()
}

func hashEndurance(res *EnduranceResult) string {
	b := newBitHash()
	b.ints(len(res.Periods))
	for _, p := range res.Periods {
		b.ints(p.Period)
		b.floats(p.Wasted, p.Undersupplied, p.Utilization, p.Capacity, p.ForecastRMSE)
	}
	b.snapshot(res.Battery)
	b.floats(res.Leaked, res.Faded, res.PerfSeconds)
	return b.sum()
}

func hashPlan(steps []params.PlanStep) string {
	b := newBitHash()
	b.ints(len(steps))
	for _, s := range steps {
		b.ints(s.Slot)
		b.floats(s.Allocated)
		b.point(s.Point)
		sw := 0
		if s.Switched {
			sw = 1
		}
		b.ints(sw)
		b.floats(s.OverheadEnergy)
	}
	return b.sum()
}

// pinnedRuns computes every pinned run of the closed loops — the
// homogeneous and per-processor simulators, the adaptive one, the
// endurance mission — and the Algorithm 2 plan walk, keyed by a
// stable name. All run at the default PerfValue, where the paths must
// agree to the bit.
func pinnedRuns(t *testing.T) map[string]string {
	t.Helper()
	pins := map[string]string{}
	sims := []struct {
		name string
		run  func(dpm.SimConfig) (*dpm.SimResult, error)
	}{{"simulate", dpm.Simulate}, {"vector", dpm.SimulateVector}}
	overheads := []struct {
		name       string
		ohn, ohf   float64
		scenarioII bool
	}{{"oh0", 0, 0, true}, {"oh0.5-1", 0.5, 1, false}}
	for _, sc := range trace.Scenarios() {
		for _, oh := range overheads {
			if sc.Name != "I" && !oh.scenarioII {
				continue
			}
			for _, model := range []dpm.BatteryModel{dpm.NetFlow, dpm.Sequential} {
				for _, syncCharge := range []bool{false, true} {
					for _, perturbed := range []bool{false, true} {
						mcfg := ManagerConfig(sc)
						mcfg.Params.OverheadProc, mcfg.Params.OverheadFreq = oh.ohn, oh.ohf
						cfg := dpm.SimConfig{Battery: model, Manager: mcfg, Periods: 2, SyncCharge: syncCharge}
						if perturbed {
							cfg.ActualCharging = trace.Perturb(sc.Charging, 0.2, 7)
						}
						for _, sim := range sims {
							res, err := sim.run(cfg)
							if err != nil {
								t.Fatal(err)
							}
							name := fmt.Sprintf("%s/%s/%s/%s/sync=%t/perturbed=%t",
								sim.name, sc.Name, oh.name, model, syncCharge, perturbed)
							pins[name] = hashSim(res)
						}
					}
				}
			}
		}
	}
	// OmitPlanSnapshots changes only the Plan column of Simulate.
	omit := dpm.SimConfig{Manager: ManagerConfig(trace.ScenarioII()), Periods: 2, OmitPlanSnapshots: true}
	res, err := dpm.Simulate(omit)
	if err != nil {
		t.Fatal(err)
	}
	pins["simulate/II/omit-plans"] = hashSim(res)

	for _, sc := range trace.Scenarios() {
		actual := make([]*schedule.Grid, 6)
		for p := range actual {
			actual[p] = trace.Perturb(sc.Charging.Scale(1-0.02*float64(p)), 0.15, int64(100+p))
		}
		ma, err := predict.NewMovingAverage(3)
		if err != nil {
			t.Fatal(err)
		}
		predictors := []predict.Predictor{nil, predict.NewLastPeriod(), ma}
		for _, pred := range predictors {
			name := "nil"
			if pred != nil {
				name = pred.Name()
			}
			res, err := dpm.SimulateAdaptive(dpm.AdaptiveConfig{
				Base:          ManagerConfig(sc),
				ActualPeriods: actual,
				Predictor:     pred,
				Battery:       dpm.Sequential,
			})
			if err != nil {
				t.Fatal(err)
			}
			pins[fmt.Sprintf("adaptive/%s/%s", sc.Name, name)] = hashSim(res)
		}
	}

	endurance := []struct {
		name string
		cfg  EnduranceConfig
	}{
		{"ideal", EnduranceConfig{Periods: 4}},
		{"aging-degradation", EnduranceConfig{Periods: 6, SolarDegradationPerPeriod: 0.03,
			Aging: battery.AgingConfig{FadePerJoule: 1e-4, SelfDischargePerSecond: 1e-5}}},
		{"jitter-margin-last", EnduranceConfig{Periods: 6, Jitter: 0.2, Seed: 11, PlanningMargin: 0.1,
			Predictor: predict.NewLastPeriod()}},
		{"noguards-ma", EnduranceConfig{Periods: 6, Jitter: 0.1, Seed: 3, DisableSlotGuards: true,
			SolarDegradationPerPeriod: 0.01}},
	}
	for _, sc := range trace.Scenarios() {
		for _, e := range endurance {
			cfg := e.cfg
			cfg.Scenario = sc
			if e.name == "noguards-ma" {
				ma, err := predict.NewMovingAverage(3)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Predictor = ma
			}
			if e.name == "jitter-margin-last" {
				cfg.Predictor = predict.NewLastPeriod()
			}
			res, err := Endurance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pins[fmt.Sprintf("endurance/%s/%s", sc.Name, e.name)] = hashEndurance(res)
		}
	}

	for _, pv := range []float64{0, 1e-9, 1e-8} {
		pcfg := PaperParams()
		pcfg.OverheadProc, pcfg.OverheadFreq, pcfg.PerfValue = 0.5, 1, pv
		table, err := params.BuildTable(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range trace.Scenarios() {
			plan, err := InitialAllocation(sc)
			if err != nil {
				t.Fatal(err)
			}
			alloc := plan.Allocation
			dst := make([]params.PlanStep, alloc.Len())
			pins[fmt.Sprintf("planinto/%s/perfvalue=%g", sc.Name, pv)] = hashPlan(table.PlanInto(dst, alloc.Values, alloc.Step))
			jittered := trace.Perturb(alloc, 0.5, 5)
			pins[fmt.Sprintf("planinto/%s-jittered/perfvalue=%g", sc.Name, pv)] = hashPlan(table.PlanInto(dst, jittered.Values, jittered.Step))
		}
	}
	return pins
}

// TestSlotLoopPins holds every offline closed loop and the Algorithm 2
// plan walk to the exact float bits recorded in testdata/slotloop.pins,
// so a refactor of the slot loop or the switching rule that moves any
// value in its last place fails here. Regenerate with -update-pins
// only for an intended behaviour change.
func TestSlotLoopPins(t *testing.T) {
	got := pinnedRuns(t)
	if *updatePins {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(pinFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinFile)
	if err != nil {
		t.Fatalf("%v (run with -update-pins to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed pin line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned runs recorded, %d computed", len(want), len(got))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], sum)
		}
	}
}

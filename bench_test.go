// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§5), plus ablation benches for the design
// choices called out in DESIGN.md. Run everything with
//
//	go test -bench=. -benchmem
//
// The benchmarks exercise the same code paths cmd/tables prints, so
// "regenerate Table N" and "benchmark Table N" are the same pipeline.
package dpm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dpm/internal/baseline"
	"dpm/internal/dpm"
	"dpm/internal/experiments"
	"dpm/internal/fft"
	"dpm/internal/fixed"
	"dpm/internal/machine"
	"dpm/internal/params"
	"dpm/internal/power"
	"dpm/internal/predict"
	"dpm/internal/schedule"
	"dpm/internal/server"
	"dpm/internal/trace"
)

// BenchmarkFigure3ScenarioISchedules regenerates the Figure 3 series
// (scenario I charging and use schedules).
func BenchmarkFigure3ScenarioISchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.FigureTable(trace.ScenarioI(), 3)
		if t.Rows() != 12 {
			b.Fatal("figure 3 wrong")
		}
	}
}

// BenchmarkFigure4ScenarioIISchedules regenerates the Figure 4
// series (scenario II schedules).
func BenchmarkFigure4ScenarioIISchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.FigureTable(trace.ScenarioII(), 4)
		if t.Rows() != 12 {
			b.Fatal("figure 4 wrong")
		}
	}
}

// BenchmarkTable1AlgorithmComparison regenerates Table 1: the
// proposed manager and the static baseline on both scenarios, two
// periods each, paper-faithful configuration.
func BenchmarkTable1AlgorithmComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, comps, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range comps {
			if c.Proposed.Badness() >= c.Baseline.Badness() {
				b.Fatalf("scenario %s: headline inverted", c.Scenario)
			}
		}
	}
}

// BenchmarkTable2InitialAllocationScenarioI regenerates Table 2
// (Algorithm 1 iterations, scenario I).
func BenchmarkTable2InitialAllocationScenarioI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.InitialAllocation(trace.ScenarioI())
		if err != nil || !res.Feasible {
			b.Fatal("allocation failed")
		}
	}
}

// BenchmarkTable3DynamicUpdateScenarioI regenerates Table 3
// (Algorithm 3 runtime updates over two periods, scenario I).
func BenchmarkTable3DynamicUpdateScenarioI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DynamicUpdate(trace.ScenarioI())
		if err != nil || len(res.Records) != 24 {
			b.Fatal("dynamic update failed")
		}
	}
}

// BenchmarkTable4InitialAllocationScenarioII regenerates Table 4
// (Algorithm 1 iterations, scenario II).
func BenchmarkTable4InitialAllocationScenarioII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.InitialAllocation(trace.ScenarioII())
		if err != nil || !res.Feasible {
			b.Fatal("allocation failed")
		}
	}
}

// BenchmarkTable5DynamicUpdateScenarioII regenerates Table 5
// (Algorithm 3 runtime updates, scenario II).
func BenchmarkTable5DynamicUpdateScenarioII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DynamicUpdate(trace.ScenarioII())
		if err != nil || len(res.Records) != 24 {
			b.Fatal("dynamic update failed")
		}
	}
}

// Ablations ---------------------------------------------------------

// BenchmarkAblationRedistribution compares Algorithm 3's
// proportional redistribution against the even alternative the paper
// mentions.
func BenchmarkAblationRedistribution(b *testing.B) {
	for _, policy := range []dpm.RedistributePolicy{dpm.Proportional, dpm.Even} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			cfg := experiments.ManagerConfig(trace.ScenarioII())
			cfg.Policy = policy
			for i := 0; i < b.N; i++ {
				res, err := dpm.Simulate(dpm.SimConfig{Manager: cfg, Periods: 2})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Battery.Wasted+res.Battery.Undersupplied, "J-bad")
			}
		})
	}
}

// BenchmarkAblationSlotGuards measures the effect of the slot-level
// under/oversupply guards (this implementation's extension over the
// paper).
func BenchmarkAblationSlotGuards(b *testing.B) {
	for _, guards := range []bool{true, false} {
		name := "on"
		if !guards {
			name = "off"
		}
		guards := guards
		b.Run(name, func(b *testing.B) {
			cfg := experiments.ManagerConfig(trace.ScenarioI())
			cfg.DisableSlotGuards = !guards
			for i := 0; i < b.N; i++ {
				res, err := dpm.Simulate(dpm.SimConfig{Manager: cfg, Periods: 2})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Battery.Wasted+res.Battery.Undersupplied, "J-bad")
			}
		})
	}
}

// BenchmarkAblationBatteryModel compares the physical net-flow
// battery against the paper's sequential slot discretization.
func BenchmarkAblationBatteryModel(b *testing.B) {
	for _, model := range []dpm.BatteryModel{dpm.NetFlow, dpm.Sequential} {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			cfg := experiments.ManagerConfig(trace.ScenarioI())
			cfg.DisableSlotGuards = true
			for i := 0; i < b.N; i++ {
				res, err := dpm.Simulate(dpm.SimConfig{Manager: cfg, Periods: 2, Battery: model})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Battery.Wasted, "J-wasted")
			}
		})
	}
}

// BenchmarkAblationOverheadSweep sweeps Algorithm 2's switching
// overhead and reports how often the manager switches points.
func BenchmarkAblationOverheadSweep(b *testing.B) {
	for _, overhead := range []float64{0, 0.05, 0.5, 5} {
		overhead := overhead
		b.Run(fmt.Sprintf("OH=%gJ", overhead), func(b *testing.B) {
			cfg := experiments.ManagerConfig(trace.ScenarioII())
			cfg.Params.OverheadProc = overhead
			cfg.Params.OverheadFreq = overhead
			for i := 0; i < b.N; i++ {
				res, err := dpm.Simulate(dpm.SimConfig{Manager: cfg, Periods: 2})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Switches), "switches")
			}
		})
	}
}

// BenchmarkAblationVectorVsHomogeneous compares the paper's common-
// clock Algorithm 2 against the §6 per-processor-frequency extension
// at a mid-range budget.
func BenchmarkAblationVectorVsHomogeneous(b *testing.B) {
	cfg := experiments.PaperParams()
	tbl, err := params.BuildTable(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("homogeneous", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt := tbl.Select(1.5)
			b.ReportMetric(pt.Perf, "perf")
		}
	})
	b.Run("vector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt, err := params.VectorSelect(cfg, 1.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pt.Perf, "perf")
		}
	})
}

// BenchmarkAblationVectorManager runs the whole closed loop in both
// parameter modes — the §6 extension end to end — and reports the
// delivered performance.
func BenchmarkAblationVectorManager(b *testing.B) {
	cfg := experiments.ManagerConfig(trace.ScenarioI())
	b.Run("common-clock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := dpm.Simulate(dpm.SimConfig{Manager: cfg, Periods: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PerfSeconds, "perf-s")
		}
	})
	b.Run("per-processor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := dpm.SimulateVector(dpm.SimConfig{Manager: cfg, Periods: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PerfSeconds, "perf-s")
		}
	})
}

// BenchmarkAblationPolicyZoo pits the paper's proposed manager
// against the whole comparator family — static (idle-off), optimal
// time-out, and predictive shutdown — on scenario II, reporting each
// policy's combined wasted+undersupplied energy.
func BenchmarkAblationPolicyZoo(b *testing.B) {
	s := trace.ScenarioII()
	tbl, err := params.BuildTable(experiments.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	base := baseline.Config{
		Table:          tbl,
		Usage:          s.Usage,
		ActualCharging: s.Charging,
		CapacityMax:    s.CapacityMax,
		CapacityMin:    s.CapacityMin,
		InitialCharge:  s.InitialCharge,
		Periods:        2,
	}
	report := func(b *testing.B, bad float64) { b.ReportMetric(bad, "J-bad") }
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := baseline.Run(base)
			if err != nil {
				b.Fatal(err)
			}
			report(b, res.Battery.Wasted+res.Battery.Undersupplied)
		}
	})
	b.Run("optimal-timeout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, res, err := baseline.OptimalTimeout(base, 4)
			if err != nil {
				b.Fatal(err)
			}
			report(b, res.Battery.Wasted+res.Battery.Undersupplied)
		}
	})
	b.Run("predictive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := baseline.RunPredictive(base, predict.NewLastPeriod())
			if err != nil {
				b.Fatal(err)
			}
			report(b, res.Battery.Wasted+res.Battery.Undersupplied)
		}
	})
	b.Run("proposed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := dpm.Simulate(dpm.SimConfig{Manager: experiments.ManagerConfig(s), Periods: 2})
			if err != nil {
				b.Fatal(err)
			}
			report(b, res.Battery.Wasted+res.Battery.Undersupplied)
		}
	})
}

// BenchmarkAblationIdleMode compares parking idle workers in
// stand-by (6.6 mW, DRAM lost → reload penalty on resume) against
// sleep (393 mW, DRAM retained) on a bursty trace, reporting energy
// and latency.
func BenchmarkAblationIdleMode(b *testing.B) {
	s := trace.ScenarioI()
	events, err := trace.PoissonEvents(s.Usage, 0.08, 2*trace.Period, 23)
	if err != nil {
		b.Fatal(err)
	}
	for _, sleep := range []bool{false, true} {
		name := "standby"
		if sleep {
			name = "sleep"
		}
		sleep := sleep
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mcfg := experiments.ManagerConfig(s)
				mcfg.Params.IdleSleep = sleep
				board, err := machine.New(machine.Config{
					Manager:   mcfg,
					Events:    events,
					Periods:   2,
					IdleSleep: sleep,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := board.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.EnergyUsed, "J-used")
				b.ReportMetric(res.MeanLatencySeconds, "s-latency")
			}
		})
	}
}

// BenchmarkAblationGangScheduling compares bag-of-tasks execution
// (each capture on one worker) against the paper's Figure 2 gang
// model (one parallel program across all active workers), reporting
// mean capture latency.
func BenchmarkAblationGangScheduling(b *testing.B) {
	s := trace.ScenarioI()
	events, err := trace.PoissonEvents(s.Usage, 0.1, 2*trace.Period, 17)
	if err != nil {
		b.Fatal(err)
	}
	for _, gang := range []bool{false, true} {
		name := "bag-of-tasks"
		if gang {
			name = "gang"
		}
		gang := gang
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				board, err := machine.New(machine.Config{
					Manager:       experiments.ManagerConfig(s),
					Events:        events,
					Periods:       2,
					GangScheduled: gang,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := board.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanLatencySeconds, "s-latency")
			}
		})
	}
}

// BenchmarkAblationFFTScaling compares the paper's guaranteed
// per-stage scaling against block-floating-point scaling on a quiet
// input, reporting the SNR each achieves.
func BenchmarkAblationFFTScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	input := make([]complex128, 2048)
	for i := range input {
		input[i] = complex(0.01*rng.NormFloat64(), 0.01*rng.NormFloat64())
	}
	b.Run("guaranteed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snr, err := fft.SNR(input)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(snr, "dB-SNR")
		}
	})
	b.Run("block-floating", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snr, err := fft.BFPSNR(input)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(snr, "dB-SNR")
		}
	})
}

// BenchmarkAblationHeterogeneous compares a uniform fleet against a
// mixed-speed fleet at the same power budget — the paper's §6
// heterogeneous-system extension.
func BenchmarkAblationHeterogeneous(b *testing.B) {
	cfg := experiments.PaperParams()
	uniformProcs := make([]power.ProcessorModel, 7)
	for i := range uniformProcs {
		uniformProcs[i] = power.M32RD()
	}
	uniform, err := params.NewFleet(uniformProcs, nil)
	if err != nil {
		b.Fatal(err)
	}
	mixed, err := params.NewFleet(uniformProcs, []float64{2, 1.5, 1.2, 1, 1, 0.8, 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fleet params.Fleet
	}{{"uniform", uniform}, {"mixed", mixed}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := params.HeteroSelect(cfg, tc.fleet, 1.5)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(h.Perf, "perf")
			}
		})
	}
}

// BenchmarkAblationPredictors backtests the §2 expected-schedule
// estimators over jittered scenario I periods and reports mean RMSE.
func BenchmarkAblationPredictors(b *testing.B) {
	base := trace.ScenarioI().Charging
	var periods []*schedule.Grid
	for i := int64(0); i < 16; i++ {
		periods = append(periods, trace.Perturb(base, 0.3, 900+i))
	}
	predictors := map[string]func() predict.Predictor{
		"last-period":    func() predict.Predictor { return predict.NewLastPeriod() },
		"moving-average": func() predict.Predictor { p, _ := predict.NewMovingAverage(6); return p },
		"exponential":    func() predict.Predictor { p, _ := predict.NewExponential(0.3); return p },
	}
	for name, mk := range predictors {
		mk := mk
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				errs, err := predict.Backtest(mk(), periods)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(predict.MeanRMSE(errs), "W-RMSE")
			}
		})
	}
}

// Service benches ---------------------------------------------------

// postPlanBench drives one /v1/plan request through the service
// handler and fails the benchmark unless it succeeds with the
// expected cache disposition.
func postPlanBench(b *testing.B, h http.Handler, body []byte, wantCache string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("plan status = %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("X-Dpmd-Cache"); got != wantCache {
		b.Fatalf("cache disposition = %q, want %q", got, wantCache)
	}
}

// BenchmarkPlanCacheHit measures a /v1/plan round trip served from
// the scenario plan cache: one priming miss, then every timed
// iteration is a hit returning the stored bytes.
func BenchmarkPlanCacheHit(b *testing.B) {
	srv, err := server.New(server.Config{CacheEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body, err := json.Marshal(server.PlanRequest{Scenario: trace.ScenarioI()})
	if err != nil {
		b.Fatal(err)
	}
	postPlanBench(b, h, body, "miss")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postPlanBench(b, h, body, "hit")
	}
}

// BenchmarkPlanCold measures the same round trip when every request
// misses — each iteration nudges the battery capacity by a micro-joule,
// a keyed planning input (the scenario name is not keyed), so the full
// Algorithm 1 computation runs every time. The gap against
// BenchmarkPlanCacheHit is what the cache buys.
func BenchmarkPlanCold(b *testing.B) {
	srv, err := server.New(server.Config{CacheEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	bodies := make([][]byte, b.N)
	for i := range bodies {
		s := trace.ScenarioI()
		s.CapacityMax += float64(i) * 1e-6
		body, err := json.Marshal(server.PlanRequest{Scenario: s})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postPlanBench(b, h, bodies[i], "miss")
	}
}

// BenchmarkPlanParallel measures concurrent warm-cache /v1/plan round
// trips (b.RunParallel): a primed working set of distinct scenarios,
// every timed request a hit, so the plan cache's lock discipline is
// the bottleneck. shards=1 serializes every reader through one mutex;
// the sharded variant routes keys across shard locks. Run with
// -cpu N to scale the parallelism beyond GOMAXPROCS' default.
func BenchmarkPlanParallel(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"shards=1", 1}, {"shards=8", 8}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			srv, err := server.New(server.Config{CacheEntries: 64, CacheShards: tc.shards})
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			const working = 16
			bodies := make([][]byte, working)
			for i := range bodies {
				s := trace.ScenarioI()
				// Distinct planning input → distinct cache key, so
				// parallel readers spread across shards.
				s.CapacityMax += float64(i)
				body, err := json.Marshal(server.PlanRequest{Scenario: s})
				if err != nil {
					b.Fatal(err)
				}
				bodies[i] = body
				postPlanBench(b, h, body, "miss")
			}
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := ctr.Add(1)
					postPlanBench(b, h, bodies[i%working], "hit")
				}
			})
		})
	}
}

// Kernel benches ----------------------------------------------------

// BenchmarkFFTFixed2K times the 2K-sample fixed-point FFT — the
// workload the paper calibrates τ against.
func BenchmarkFFTFixed2K(b *testing.B) {
	table, err := fft.NewTwiddleTable(2048)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	input := make([]fixed.Complex, 2048)
	for i := range input {
		input[i] = fixed.CFromFloat(complex(0.1*rng.NormFloat64(), 0.1*rng.NormFloat64()))
	}
	buf := make([]fixed.Complex, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, input)
		if err := table.ForwardFixed(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTFloat2K times the float reference transform.
func BenchmarkFFTFloat2K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	input := make([]complex128, 2048)
	for i := range input {
		input[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	buf := make([]complex128, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, input)
		if err := fft.Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineSimulation times the full PAMA board discrete-event
// simulation with real DSP execution — the heaviest end-to-end path.
func BenchmarkMachineSimulation(b *testing.B) {
	s := trace.ScenarioI()
	events, err := trace.PoissonEvents(s.Usage, 0.1, 2*trace.Period, 17)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		board, err := machine.New(machine.Config{
			Manager:    experiments.ManagerConfig(s),
			Events:     events,
			Periods:    2,
			ExecuteDSP: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := board.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineStatic times the comparator policy.
func BenchmarkBaselineStatic(b *testing.B) {
	s := trace.ScenarioI()
	tbl, err := params.BuildTable(experiments.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_, err := baseline.Run(baseline.Config{
			Table:          tbl,
			Usage:          s.Usage,
			ActualCharging: s.Charging,
			CapacityMax:    s.CapacityMax,
			CapacityMin:    s.CapacityMin,
			InitialCharge:  s.InitialCharge,
			Periods:        2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTRealVsComplex2K compares the real-input path against
// the complex transform at the FORTE size.
func BenchmarkFFTRealVsComplex2K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	realIn := make([]fixed.Q15, 2048)
	cplxIn := make([]fixed.Complex, 2048)
	for i := range realIn {
		v := 0.1 * rng.NormFloat64()
		realIn[i] = fixed.FromFloat(v)
		cplxIn[i] = fixed.CFromFloat(complex(v, 0))
	}
	b.Run("complex", func(b *testing.B) {
		table, err := fft.NewTwiddleTable(2048)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]fixed.Complex, 2048)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, cplxIn)
			if err := table.ForwardFixed(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real", func(b *testing.B) {
		tr, err := fft.NewRealTransformer(2048)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]fixed.Q15, 2048)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, realIn)
			if _, err := tr.ForwardReal(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

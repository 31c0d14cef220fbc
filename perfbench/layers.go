package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dpm/internal/alloc"
	"dpm/internal/dpm"
	"dpm/internal/fleet"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/plancache"
	"dpm/internal/scenario"
	"dpm/internal/server"
	"dpm/internal/trace"
)

// Replay budgets of the traced run: how many operations of each
// seeded stream replay in process. Every traced run replays all three
// streams, so every layer row is measured whichever workload drove
// dpmd.
const (
	replayHot     = 20000
	replayCold    = 4000
	replayWindows = 6 * 12 // six periods, so switching devices replan
	allocCalls    = 2000
)

// Request ids of the hot replay: the warm-up requests come first.
const hotWarmIDs = hotVariants * 2

// ledgerRow maps a span name onto the ROADMAP stage it prices. Rows
// with sum set add up, together with the unexplained remainder, to the
// operation's client-side latency; the others are nested in or shadow
// a summed row and are shown for attribution only.
type ledgerRow struct {
	span, stage string
	sum         bool
}

var planLedger = []ledgerRow{
	{"server.decode_json", "decode", true},
	{"server.decode_bin", "decode", true},
	{"scenario.validate", "validate/normalize", true},
	{"plancache.key", "cache key", true},
	{"plancache.get_hit", "cache lookup/clone", true},
	{"plancache.get_miss", "cache insert/evict", true},
	{"pipeline.plan", "Algorithm 1/2", true},
	{"server.encode_json", "encode", true},
	{"server.encode_bin", "encode", true},
}

var telemetryLedger = []ledgerRow{
	{"ingest.inject", "parse + shard apply", true},
	{"ingest.parse", "parse (within inject)", false},
	{"ingest.flush", "flush", true},
	{"fleet.tick", "fleet tick", true},
	{"fleet.register", "Algorithm 1/2 (replan)", true},
	{"predict.forecast", "forecast (within flush)", false},
}

// streamTrace is one stream's traced replay.
type streamTrace struct {
	name  string
	tr    *tracer
	timed func(span) bool // the spans of timed operations
}

// traceLayers replays all three seeded streams in process with a span
// per layer call, derives every per-layer metric, prints the ledger of
// the measured workload and writes the span file.
func traceLayers(ctx context.Context, o options, s *streamSet, rep *report) error {
	hot := s.hot
	var err error
	if hot == nil {
		if hot, err = newHotStream(ctx, o.seed); err != nil {
			return err
		}
	}
	cold, err := newColdStream(ctx, o.seed, 0, time.Duration(replayCold)*time.Second/coldRate)
	if err != nil {
		return err
	}
	tel, err := newTelemetryStream(o.seed, replayWindows)
	if err != nil {
		return err
	}
	tableBefore := params.SharedTableStats()

	hotT, plans, iterations, err := replayHotStream(ctx, hot)
	if err != nil {
		return err
	}
	coldT, p2, i2, err := replayColdStream(ctx, cold)
	if err != nil {
		return err
	}
	plans, iterations = plans+p2, iterations+i2
	telT := &streamTrace{name: "telemetry_loop", tr: newTracer(),
		timed: func(sp span) bool { return sp.Req < 1_000_000 }}
	m, err := replayTelemetry(ctx, tel, telT.tr, replayWindows)
	if err != nil {
		return err
	}
	endSlot := m.stages.With("fleet.replan")
	endSlotUS := ratio(endSlot.Sum()*1e6, float64(endSlot.Count()))
	m.close()
	tableAfter := params.SharedTableStats()

	keyAllocs, planAllocs, tickAllocs, err := measureAllocs(ctx, hot)
	if err != nil {
		return err
	}

	streams := []*streamTrace{hotT, coldT, telT}
	pooled := map[string]layerStat{}
	nSpans := 0
	for _, st := range streams {
		spans := st.tr.snapshot()
		nSpans += len(spans)
		for name, l := range aggregate(spans) {
			p := pooled[name]
			p.Count += l.Count
			p.SelfNs += l.SelfNs
			pooled[name] = p
		}
	}
	us := func(name string) float64 { return pooled[name].meanSelfUS() }

	own := map[string]*streamTrace{"plan_hot": hotT, "plan_cold": coldT, "telemetry_loop": telT}[o.workload]
	rows := planLedger
	if o.workload == "telemetry_loop" {
		rows = telemetryLedger
	}
	lines, httpSelf := ledger(own, rows, rep.e2eMeanMS*1e3, endSlotUS)
	rep.info = append(rep.info, lines...)

	hits := float64(tableAfter.Hits - tableBefore.Hits)
	misses := float64(tableAfter.Misses - tableBefore.Misses)
	layer := metricList{
		{"server.decode_json_us", us("server.decode_json"), "us"},
		{"server.decode_bin_us", us("server.decode_bin"), "us"},
		{"server.encode_json_us", us("server.encode_json"), "us"},
		{"server.encode_bin_us", us("server.encode_bin"), "us"},
		{"server.http_self_us", httpSelf, "us"},
		{"scenario.validate_us", us("scenario.validate"), "us"},
		{"plancache.key_us", us("plancache.key"), "us"},
		{"plancache.key_allocs", keyAllocs, "count"},
		{"plancache.get_hit_us", us("plancache.get_hit"), "us"},
		{"pipeline.plan_us", us("pipeline.plan"), "us"},
		{"pipeline.plan_allocs", planAllocs, "count"},
		{"alloc.iterations_per_plan", ratio(float64(iterations), float64(plans)), "count"},
		{"params.table_hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"ingest.parse_us", us("ingest.parse"), "us"},
		{"ingest.inject_us", us("ingest.inject"), "us"},
		{"ingest.flush_self_us", us("ingest.flush"), "us"},
		{"fleet.tick_us", us("fleet.tick"), "us"},
		{"fleet.tick_allocs", tickAllocs, "count"},
		{"fleet.register_us", us("fleet.register"), "us"},
		{"dpm.end_slot_us", endSlotUS, "us"},
		{"predict.forecast_us", us("predict.forecast"), "us"},
	}
	rep.layers = append(layer, rep.layers...)

	path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, streams); err != nil {
		return err
	}
	rep.info = append(rep.info, fmt.Sprintf("info spans=%d file=%s", nSpans, path))
	return nil
}

// replayHotStream replays plan_hot: the 64 warm-up misses, then the
// seeded sequence, every timed request a hit.
func replayHotStream(ctx context.Context, s *hotStream) (*streamTrace, int, int, error) {
	m, err := newPlanMirror()
	if err != nil {
		return nil, 0, 0, err
	}
	st := &streamTrace{name: "plan_hot", tr: newTracer(),
		timed: func(sp span) bool { return sp.Req >= hotWarmIDs }}
	id := int64(0)
	for v := range s.cases {
		for enc := range s.cases[v] {
			c := &s.cases[v][enc]
			hit, err := m.serve(ctx, st.tr, id, c.body, c.binary)
			if err != nil || hit {
				return nil, 0, 0, fmt.Errorf("hot replay warm-up %d: hit=%v err=%v", id, hit, err)
			}
			id++
		}
	}
	for i := int64(0); i < replayHot; i++ {
		v, enc := s.pick(i)
		c := &s.cases[v][enc]
		hit, err := m.serve(ctx, st.tr, id, c.body, c.binary)
		if err != nil || !hit {
			return nil, 0, 0, fmt.Errorf("hot replay request %d: hit=%v err=%v", i, hit, err)
		}
		id++
	}
	return st, m.plans, m.iterations, nil
}

// replayColdStream replays plan_cold's first requests; every one must
// miss.
func replayColdStream(ctx context.Context, s *coldStream) (*streamTrace, int, int, error) {
	m, err := newPlanMirror()
	if err != nil {
		return nil, 0, 0, err
	}
	n := min(replayCold, len(s.cases))
	st := &streamTrace{name: "plan_cold", tr: newTracer(), timed: func(span) bool { return true }}
	for i := 0; i < n; i++ {
		c := &s.cases[i]
		hit, err := m.serve(ctx, st.tr, int64(i), c.body, c.binary)
		if err != nil || hit {
			return nil, 0, 0, fmt.Errorf("cold replay request %d: hit=%v err=%v", i, hit, err)
		}
	}
	return st, m.plans, m.iterations, nil
}

// ledger prices one operation of the measured workload by layer: the
// mean self time per operation of every span, in microseconds, and its
// share of the client-side latency. The remainder — what the traced
// layers do not explain: HTTP, the UDP path, scheduling and queueing —
// is server.http_self_us.
func ledger(st *streamTrace, rows []ledgerRow, opUS, endSlotUS float64) ([]string, float64) {
	spans := st.tr.snapshot()
	self := selfTimes(spans)
	per := map[string]float64{}
	for i, sp := range spans {
		if st.timed(sp) {
			per[sp.Name] += float64(self[i]) / 1e3
		}
	}
	ops, ticks := 0, 0
	for _, sp := range spans {
		if sp.Parent < 0 && st.timed(sp) && (sp.Name == "request" || sp.Name == "window") {
			ops++
		}
		if sp.Name == "fleet.tick" && st.timed(sp) {
			ticks++
		}
	}
	for k := range per {
		per[k] /= float64(max(ops, 1))
	}
	explained := 0.0
	for _, r := range rows {
		if r.sum {
			explained += per[r.span]
		}
	}
	residual := opUS - explained
	var lines []string
	lines = append(lines, fmt.Sprintf("ledger %s: mean cost per operation over %d replayed operations; latency %.2f us from the measured window",
		st.name, ops, opUS))
	lines = append(lines, fmt.Sprintf("ledger   %-26s %-22s %10s %7s", "stage", "span", "us/op", "share"))
	for _, r := range rows {
		mark := ""
		if !r.sum {
			mark = " (nested)"
		}
		lines = append(lines, fmt.Sprintf("ledger   %-26s %-22s %10.3f %6.1f%%%s", r.stage, r.span, per[r.span], 100*ratio(per[r.span], opUS), mark))
	}
	if ticks > 0 {
		// EndSlotReplan runs inside every fleet tick.
		perOp := endSlotUS * float64(ticks) / float64(max(ops, 1))
		lines = append(lines, fmt.Sprintf("ledger   %-26s %-22s %10.3f %6.1f%% (nested)", "Algorithm 3 (within tick)", "dpm.end_slot", perOp, 100*ratio(perOp, opUS)))
	}
	lines = append(lines, fmt.Sprintf("ledger   %-26s %-22s %10.3f %6.1f%%", "http + write (remainder)", "server.http_self", residual, 100*ratio(residual, opUS)))
	return lines, residual
}

// allocsPerCall counts heap allocations per call of f over n calls.
func allocsPerCall(n int, f func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// measureAllocs counts allocations per call of plancache.Key,
// pipeline.PlanWith and fleet.Tick on the hot stream's variants, in
// untimed passes of their own.
func measureAllocs(ctx context.Context, hot *hotStream) (key, plan, tick float64, err error) {
	reqs := make([]server.PlanRequest, hotVariants)
	for v := range reqs {
		dec := json.NewDecoder(bytes.NewReader(hot.cases[v][0].body))
		if err := dec.Decode(&reqs[v]); err != nil {
			return 0, 0, 0, err
		}
		if _, err := normalizePlanRequest(&reqs[v]); err != nil {
			return 0, 0, 0, err
		}
		reqs[v].Scenario.Name = ""
	}
	key, err = allocsPerCall(allocCalls, func(i int) error {
		_, err := plancache.Key("plan", reqs[i%hotVariants])
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	plan, err = allocsPerCall(allocCalls/4, func(i int) error {
		_, err := pipeline.PlanWith(ctx, "", pipeline.PlanSpec{
			Scenario: reqs[i%hotVariants].Scenario, Strategy: alloc.RemapProportional, MaxIterations: 16,
		})
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	fm, err := fleet.New(fleet.Config{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer fm.Close()
	var hw *scenario.Hardware
	pcfg, err := hw.WithDefaults().ParamsConfig()
	if err != nil {
		return 0, 0, 0, err
	}
	sc := trace.ScenarioI()
	if _, err := fm.Register(ctx, fleet.RegisterSpec{DeviceID: "alloc", Scenario: sc, Params: pcfg, Policy: dpm.Proportional}); err != nil {
		return 0, 0, 0, err
	}
	tau := sc.Usage.Step
	tick, err = allocsPerCall(allocCalls, func(i int) error {
		slot := i % sc.Usage.Len()
		_, err := fm.Tick(ctx, fleet.TickSpec{DeviceID: "alloc", Reports: []pipeline.SlotReport{{
			UsedJ: sc.Usage.Values[slot] * tau, SuppliedJ: sc.Charging.Values[slot] * tau,
		}}})
		return err
	})
	return key, plan, tick, err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/alloc"
	"dpm/internal/pipeline"
	"dpm/internal/plancache"
	"dpm/internal/server"
	"dpm/internal/trace"
)

// Plan workloads -----------------------------------------------------
//
// plan_hot replays 32 seeded 12-slot variants of the paper's scenarios
// I and II, three of four requests as JSON and one as the binary codec,
// so its 64 cache keys stay far below the 256-entry plan cache and
// every timed request is a hit. plan_cold sends a fresh seeded forecast
// per request, so every request misses and the cache inserts and
// evicts. Both check every reply against an in-process Algorithm 1
// run of the same request.

const (
	hotVariants = 32
	hotJitter   = 0.10
	coldJitter  = 0.20
	// hotRate is plan_hot's Poisson arrival rate in requests/s, a fifth
	// of what dpmd serves from its cache on one CPU.
	hotRate = 2000
	// coldRate is plan_cold's Poisson arrival rate in requests/s, well
	// below what dpmd plans afresh on one CPU.
	coldRate = 1000
	// bandTolerance is Algorithm 1's default feasibility slack in
	// joules.
	bandTolerance = 1e-9
)

// mix derives an independent 64-bit stream value from the run seed
// and a position (splitmix64 over the combined words).
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ i*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// variantScenario perturbs scenario I (even base) or II (odd base)
// into a seeded variant.
func variantScenario(name string, base int, h uint64, jitter float64) trace.Scenario {
	sc := trace.ScenarioI()
	if base%2 == 1 {
		sc = trace.ScenarioII()
	}
	sc.Name = name
	sc.Usage = trace.Perturb(sc.Usage, jitter, int64(h>>1))
	sc.Charging = trace.Perturb(sc.Charging, jitter, int64(h>>2)+1)
	return sc
}

// planCase is one distinct plan request and its expected replies.
type planCase struct {
	binary   bool
	body     []byte // request body in its wire encoding
	want     []byte // exact reply body the in-process plan predicts
	wantPlan []float64
}

// oracle plans a scenario in process exactly as dpmd's /v1/plan does —
// the default planner, the proportional strategy and 16 iterations —
// and renders both reply encodings for the named request.
func oracle(ctx context.Context, sc trace.Scenario) (*server.PlanResponse, error) {
	keySc := sc
	keySc.Name = ""
	res, err := pipeline.PlanWith(ctx, "", pipeline.PlanSpec{
		Scenario:      keySc,
		Strategy:      alloc.RemapProportional,
		MaxIterations: 16,
	})
	if err != nil {
		return nil, err
	}
	return &server.PlanResponse{
		Scenario:   sc.Name,
		Tau:        res.Allocation.Step,
		Allocation: res.Allocation.Values,
		Trajectory: res.Trajectory,
		Iterations: len(res.Iterations),
		Feasible:   res.Feasible,
	}, nil
}

// encodeJSONReply renders a response exactly as dpmd's canonical
// encoder does: json.Encoder output with its trailing newline.
func encodeJSONReply(resp *server.PlanResponse) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newPlanCase builds the request bodies and expected replies for sc in
// one encoding.
func newPlanCase(ctx context.Context, sc trace.Scenario, binary bool) (planCase, error) {
	resp, err := oracle(ctx, sc)
	if err != nil {
		return planCase{}, fmt.Errorf("planning %s in process: %w", sc.Name, err)
	}
	if msg := checkBand(resp, sc); msg != "" {
		return planCase{}, fmt.Errorf("in-process plan %s: %s", sc.Name, msg)
	}
	req := server.PlanRequest{Scenario: sc}
	c := planCase{binary: binary, wantPlan: resp.Allocation}
	if binary {
		c.body = server.AppendPlanRequestBinary(nil, &req)
		c.want = server.AppendPlanResponseBinary(nil, resp)
		return c, nil
	}
	if c.body, err = json.Marshal(&req); err != nil {
		return planCase{}, err
	}
	c.want, err = encodeJSONReply(resp)
	return c, err
}

// checkBand verifies that a feasible plan's battery trajectory stays
// inside [Cmin, Cmax].
func checkBand(resp *server.PlanResponse, sc trace.Scenario) string {
	if !resp.Feasible {
		return ""
	}
	for i, e := range resp.Trajectory {
		if e < sc.CapacityMin-bandTolerance || e > sc.CapacityMax+bandTolerance {
			return fmt.Sprintf("feasible trajectory leaves [%g, %g] at boundary %d (%g J)",
				sc.CapacityMin, sc.CapacityMax, i, e)
		}
	}
	return ""
}

// checkPlanReply compares one /v1/plan reply with its expectation and
// returns "" when it is correct.
func checkPlanReply(status int, cache, wantCache string, body, want []byte) string {
	switch {
	case status != http.StatusOK:
		return fmt.Sprintf("status %d: %.120s", status, body)
	case cache != wantCache:
		return fmt.Sprintf("cache %q, want %q", cache, wantCache)
	case !bytes.Equal(body, want):
		return "reply body differs from the in-process plan"
	}
	return ""
}

// sameFloats compares two float columns bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeAllocation extracts the allocation from a reply in either
// encoding.
func decodeAllocation(body []byte, binary bool) ([]float64, error) {
	if binary {
		resp, err := server.DecodePlanResponseBinary(body)
		if err != nil {
			return nil, err
		}
		return resp.Allocation, nil
	}
	var resp server.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Allocation, nil
}

// postPlan sends one plan request in its encoding.
func (d *daemon) postPlan(body []byte, binary bool) (status int, cache string, reply []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	if binary {
		req.Header.Set("Content-Type", server.BinaryContentType)
		req.Header.Set("Accept", server.BinaryContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Dpmd-Cache"), reply, err
}

// opLog collects one loop's outcomes; each worker owns one.
type opLog struct {
	attempted, failed int
	lat, lag          []time.Duration
	done              []time.Time // when each timed success completed, parallel to lat
	reasons           []string
}

// record logs one timed success.
func (l *opLog) record(lat time.Duration, done time.Time) {
	l.lat = append(l.lat, lat)
	l.done = append(l.done, done)
}

func (l *opLog) fail(reason string) {
	l.failed++
	if len(l.reasons) < 5 {
		l.reasons = append(l.reasons, reason)
	}
}

func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.lat = append(l.lat, o.lat...)
	l.done = append(l.done, o.done...)
	l.lag = append(l.lag, o.lag...)
	for _, r := range o.reasons {
		if len(l.reasons) < 5 {
			l.reasons = append(l.reasons, r)
		}
	}
}

// openLoop sends operation i at start+due[i] on at most workers
// connections. Latency runs from the due time; lag records how late
// a free worker sent its operation. Operations before timedFrom are
// the warm-up: they are checked and counted but not timed. It returns
// the log and the instant the last reply arrived.
func openLoop(workers int, start time.Time, due []time.Duration, timedFrom int, op func(i int) string) (*opLog, time.Time) {
	logs := make([]opLog, workers)
	last := make([]time.Time, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(l *opLog, last *time.Time) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				free := time.Now()
				sleepUntil(dueAt)
				began := time.Now()
				msg := op(i)
				*last = time.Now()
				lat, lag := opTiming(dueAt, free, began, *last)
				l.attempted++
				if msg != "" {
					l.fail(msg)
					continue
				}
				if i >= timedFrom {
					l.record(lat, *last)
					l.lag = append(l.lag, lag)
				}
			}
		}(&logs[w], &last[w])
	}
	wg.Wait()
	out := &opLog{}
	end := start
	for i := range logs {
		out.merge(&logs[i])
		if last[i].After(end) {
			end = last[i]
		}
	}
	return out, end
}

// hotStream is plan_hot's seeded request sequence over its variants.
type hotStream struct {
	seed  int64
	cases [hotVariants][2]planCase // [variant][json, binary]
	// first holds the first reply seen per cache key; timed hits must
	// repeat it byte for byte.
	first [hotVariants][2][]byte
}

func newHotStream(ctx context.Context, seed int64) (*hotStream, error) {
	s := &hotStream{seed: seed}
	for v := 0; v < hotVariants; v++ {
		sc := variantScenario(fmt.Sprintf("hot-%02d", v), v, mix(seed, 1, uint64(v)), hotJitter)
		for enc := 0; enc < 2; enc++ {
			c, err := newPlanCase(ctx, sc, enc == 1)
			if err != nil {
				return nil, err
			}
			s.cases[v][enc] = c
		}
	}
	return s, nil
}

// pick maps request i to a variant and an encoding: one request in
// four is binary.
func (s *hotStream) pick(i int64) (v, enc int) {
	h := mix(s.seed, 2, uint64(i))
	v = int(h % hotVariants)
	if (h>>16)%4 == 0 {
		enc = 1
	}
	return v, enc
}

// warm sends every variant in both encodings once: each must miss and
// match the in-process plan, and the two encodings of one variant must
// carry the same allocation.
func (s *hotStream) warm(d *daemon) error {
	for v := range s.cases {
		for enc := range s.cases[v] {
			c := &s.cases[v][enc]
			status, cache, reply, err := d.postPlan(c.body, c.binary)
			if err != nil {
				return fmt.Errorf("warming variant %d: %w", v, err)
			}
			if msg := checkPlanReply(status, cache, "miss", reply, c.want); msg != "" {
				return fmt.Errorf("warming variant %d: %s", v, msg)
			}
			s.first[v][enc] = reply
		}
		a, errA := decodeAllocation(s.first[v][0], false)
		b, errB := decodeAllocation(s.first[v][1], true)
		if errA != nil || errB != nil || !sameFloats(a, b) {
			return fmt.Errorf("variant %d: binary and JSON replies carry different allocations", v)
		}
	}
	return nil
}

// drive replays a seeded Poisson schedule at hotRate on at most two
// connections: an untimed warm-up, then the timed window, whose start
// it reports to timed. Every reply must be a hit equal to the first
// reply for its key.
func (s *hotStream) drive(d *daemon, warmup, window time.Duration, timed func(time.Time)) (*opLog, time.Duration) {
	due, warm := poissonSchedule(mix(s.seed, 5, 0), hotRate, warmup, window)
	start := time.Now()
	timedStart := start
	if warm < len(due) {
		timedStart = start.Add(due[warm])
	}
	timed(timedStart)
	log, end := openLoop(clientConns, start, due, warm, func(i int) string {
		v, enc := s.pick(int64(i))
		c := &s.cases[v][enc]
		status, cache, reply, err := d.postPlan(c.body, c.binary)
		if err != nil {
			return err.Error()
		}
		return checkPlanReply(status, cache, "hit", reply, s.first[v][enc])
	})
	return log, end.Sub(timedStart)
}

// poissonSchedule draws seeded Poisson arrival offsets at rate per
// second over warmup+window; the first warm of them fall in the warm-up.
func poissonSchedule(seed uint64, rate float64, warmup, window time.Duration) (due []time.Duration, warm int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= warmup+window {
			return due, warm
		}
		if t < warmup {
			warm++
		}
		due = append(due, t)
	}
}

// coldStream is plan_cold's seeded arrival schedule: a fresh forecast
// per request at Poisson arrival times.
type coldStream struct {
	cases []planCase
	due   []time.Duration
	warm  int // leading requests that form the untimed warm-up
}

func newColdStream(ctx context.Context, seed int64, warmup, window time.Duration) (*coldStream, error) {
	s := &coldStream{}
	s.due, s.warm = poissonSchedule(mix(seed, 3, 0), coldRate, warmup, window)
	s.cases = make([]planCase, len(s.due))
	for i := range s.cases {
		h := mix(seed, 4, uint64(i))
		sc := variantScenario(fmt.Sprintf("cold-%d", i), int(h>>20), h, coldJitter)
		c, err := newPlanCase(ctx, sc, (h>>16)%4 == 0)
		if err != nil {
			return nil, err
		}
		s.cases[i] = c
	}
	return s, nil
}

// drive replays the arrival schedule on at most two connections; every
// reply must be a miss equal to the in-process plan. It reports the
// timed window's start to timed.
func (s *coldStream) drive(d *daemon, timed func(time.Time)) (*opLog, time.Duration) {
	start := time.Now()
	timedStart := start
	if s.warm < len(s.due) {
		timedStart = start.Add(s.due[s.warm])
	}
	timed(timedStart)
	log, end := openLoop(clientConns, start, s.due, s.warm, func(i int) string {
		c := &s.cases[i]
		status, cache, reply, err := d.postPlan(c.body, c.binary)
		if err != nil {
			return err.Error()
		}
		if msg := checkPlanReply(status, cache, "miss", reply, c.want); msg != "" {
			return msg
		}
		if c.binary {
			got, err := decodeAllocation(reply, true)
			if err != nil || !sameFloats(got, c.wantPlan) {
				return "binary reply decodes to a different allocation"
			}
		}
		return ""
	})
	return log, end.Sub(timedStart)
}

// planMirror is dpmd's /v1/plan path rebuilt in process from the same
// public functions — decode, validate, key, sharded cache, Algorithm 1,
// encode — so the traced replay can time each layer per request.
type planMirror struct {
	cache      *plancache.Sharded[[]byte]
	plans      int
	iterations int
	enc        bytes.Buffer
}

func newPlanMirror() (*planMirror, error) {
	c, err := plancache.NewSharded(256, 0, func(b []byte) []byte { return append([]byte(nil), b...) })
	if err != nil {
		return nil, err
	}
	return &planMirror{cache: c}, nil
}

// normalizePlanRequest applies dpmd's plan-request validation and
// canonicalization: strategy and planner resolution, the scenario and
// iteration bounds, and the spelled-out defaults the cache key hashes.
func normalizePlanRequest(req *server.PlanRequest) (alloc.AdjustStrategy, error) {
	strategy := alloc.RemapProportional
	switch req.Strategy {
	case "", "proportional":
	case "even":
		strategy = alloc.RemapEven
	default:
		return 0, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	if _, err := pipeline.StrategyByName(req.Planner); err != nil {
		return 0, err
	}
	spec := pipeline.PlanSpec{Scenario: req.Scenario, Strategy: strategy, MaxIterations: req.MaxIterations, Margin: req.Margin}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if req.Strategy == "" {
		req.Strategy = "proportional"
	}
	if req.Planner == pipeline.DefaultStrategy {
		req.Planner = ""
	}
	if req.MaxIterations == 0 {
		req.MaxIterations = 16
	}
	return strategy, nil
}

// serve answers one request body and reports whether the cache served
// it. Each layer call is one span under the request's root span.
func (m *planMirror) serve(ctx context.Context, tr *tracer, id int64, body []byte, binary bool) (bool, error) {
	root := tr.start("request", -1, id)
	defer tr.end(root)
	var req server.PlanRequest
	if binary {
		sp := tr.start("server.decode_bin", root, id)
		p, err := server.DecodePlanRequestBinary(body)
		tr.end(sp)
		if err != nil {
			return false, err
		}
		req = *p
	} else {
		sp := tr.start("server.decode_json", root, id)
		dec := json.NewDecoder(bytes.NewReader(body))
		err := dec.Decode(&req)
		if err == nil && dec.More() {
			err = fmt.Errorf("trailing data")
		}
		tr.end(sp)
		if err != nil {
			return false, err
		}
	}
	sp := tr.start("scenario.validate", root, id)
	strategy, err := normalizePlanRequest(&req)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	keyReq := req
	keyReq.Scenario.Name = ""
	prefix := "plan"
	if binary {
		prefix = "planb"
	}
	sp = tr.start("plancache.key", root, id)
	key, err := plancache.Key(prefix, keyReq)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	get := tr.start("plancache.get", root, id)
	_, hit, err := m.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		ps := tr.start("pipeline.plan", get, id)
		res, err := pipeline.PlanWith(ctx, req.Planner, pipeline.PlanSpec{
			Scenario:      keyReq.Scenario,
			Strategy:      strategy,
			MaxIterations: req.MaxIterations,
			Margin:        req.Margin,
		})
		tr.end(ps)
		if err != nil {
			return nil, err
		}
		m.plans++
		m.iterations += len(res.Iterations)
		resp := &server.PlanResponse{
			Planner:    req.Planner,
			Tau:        res.Allocation.Step,
			Allocation: res.Allocation.Values,
			Trajectory: res.Trajectory,
			Iterations: len(res.Iterations),
			Feasible:   res.Feasible,
		}
		if binary {
			es := tr.start("server.encode_bin", get, id)
			out := server.AppendPlanResponseBinary(nil, resp)
			tr.end(es)
			return out, nil
		}
		es := tr.start("server.encode_json", get, id)
		m.enc.Reset()
		err = json.NewEncoder(&m.enc).Encode(resp)
		out := append([]byte(nil), m.enc.Bytes()...)
		tr.end(es)
		return out, err
	})
	if hit {
		tr.endAs(get, "plancache.get_hit")
	} else {
		tr.endAs(get, "plancache.get_miss")
	}
	return hit, err
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/fleet"
	"dpm/internal/ingest"
	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/predict"
	"dpm/internal/scenario"
	"dpm/internal/schedule"
	"dpm/internal/server"
	"dpm/internal/trace"
)

// Telemetry workload -------------------------------------------------
//
// telemetry_loop registers 256 devices, then closes one τ slot per
// flush window: every device sends one devicegen-format datagram, the
// benchmark confirms dpmd has applied them, and POST /v1/ingest/flush
// ticks every fleet session. A seeded quarter of the devices switch
// their streamed trace between scenarios I and II every few periods, so
// divergence replans (fleet re-registrations, Algorithm 1) fire at a
// steady rate.

const (
	telemetryDevices = 256
	// windowRate is the flush-window rate in windows/s.
	windowRate = 40
	// warmWindows is the untimed lead-in: one period.
	warmWindows = 12
	// switchEvery is how many periods a switching device streams one
	// scenario before switching to the other.
	switchEvery  = 3
	streamJitter = 0.05
	// socketHighWater pauses sending while dpmd's socket holds this
	// many bytes, so a burst never overflows its receive buffer.
	socketHighWater = 96 << 10
	// pollInterval spaces the benchmark's reads of the kernel's view of
	// dpmd while it waits for the datagrams to be applied.
	pollInterval = 50 * time.Microsecond
)

// telemetryStream is the seeded device population and every window's
// datagrams.
type telemetryStream struct {
	ids       []string
	base      []trace.Scenario // the scenario each device registers with
	regBodies [][]byte
	// windows[w][i] is device i's datagram in window w.
	windows [][][]byte
	// streamed[w][i] are the usage and charge watts device i reports in
	// window w (what the forecaster observes).
	streamed [][][2]float64
	warm     int
}

func newTelemetryStream(seed int64, nWindows int) (*telemetryStream, error) {
	s := &telemetryStream{warm: warmWindows}
	n := telemetryDevices
	// The seed decides which device gets which role; the role counts are
	// fixed — half register scenario I, half II, a quarter switch, the
	// switchers spread evenly over the phases — so every seed asks the
	// same amount of work of dpmd.
	rank := make([]int, n)
	for k, i := range rand.New(rand.NewSource(int64(mix(seed, 5, 0)))).Perm(n) {
		rank[i] = k
	}
	switcher := make([]bool, n)
	phase := make([]int, n)
	other := make([]trace.Scenario, n) // what a switching device streams
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dev-%03d", i)
		sc, alt := trace.ScenarioI(), trace.ScenarioII()
		if rank[i]%2 == 1 {
			sc, alt = alt, sc
		}
		sc.Name = id
		other[i] = alt
		s.ids = append(s.ids, id)
		s.base = append(s.base, sc)
		body, err := json.Marshal(&server.FleetRegisterRequest{DeviceID: id, Scenario: sc})
		if err != nil {
			return nil, err
		}
		s.regBodies = append(s.regBodies, body)
		switcher[i] = rank[i] < n/4
		phase[i] = (rank[i] / 2) % switchEvery
	}
	slots := s.base[0].Usage.Len()
	var usage, charge [][]float64
	for w := 0; w < nWindows; w++ {
		period, slot := w/slots, w%slots
		if slot == 0 {
			usage, charge = make([][]float64, n), make([][]float64, n)
			for i := 0; i < n; i++ {
				src := s.base[i]
				if switcher[i] && ((period+phase[i])/switchEvery)%2 == 1 {
					src = other[i]
				}
				h := mix(seed, 6, uint64(period)<<16|uint64(i))
				usage[i] = trace.Perturb(src.Usage, streamJitter, int64(h)).Values
				charge[i] = trace.Perturb(src.Charging, streamJitter, int64(h>>1)+1).Values
			}
		}
		dgs := make([][]byte, n)
		vals := make([][2]float64, n)
		for i := 0; i < n; i++ {
			u, c := usage[i][slot], charge[i][slot]
			dgs[i] = datagram(s.ids[i], u, c)
			vals[i] = [2]float64{u, c}
		}
		s.windows = append(s.windows, dgs)
		s.streamed = append(s.streamed, vals)
	}
	return s, nil
}

// datagram renders one device's slot in devicegen's format: the usage
// watts as an events counter and the charging watts as a gauge.
func datagram(id string, usageW, chargeW float64) []byte {
	b := make([]byte, 0, 2*len(id)+48)
	b = append(b, id...)
	b = append(b, ".events:"...)
	b = strconv.AppendFloat(b, usageW, 'g', -1, 64)
	b = append(b, "|c\n"...)
	b = append(b, id...)
	b = append(b, ".charge:"...)
	b = strconv.AppendFloat(b, chargeW, 'g', -1, 64)
	return append(b, "|g"...)
}

// register creates every device's fleet session through the HTTP API.
func (s *telemetryStream) register(ctx context.Context, d *daemon) error {
	for i, body := range s.regBodies {
		status, reply, err := d.post(ctx, "/v1/fleet/register", body)
		if err != nil {
			return fmt.Errorf("registering %s: %w", s.ids[i], err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("registering %s: status %d: %.120s", s.ids[i], status, reply)
		}
	}
	return nil
}

// telemetryRun is what one e2e drive observed.
type telemetryRun struct {
	log      *opLog
	elapsed  time.Duration
	sent     uint64
	confirm  []time.Duration
	sockBase udpSocket
	sockEnd  udpSocket
}

// drive runs every window on a fixed schedule. A window's latency runs
// from its due time to the flush reply, minus the confirmation wait:
// the wait is the benchmark checking that dpmd applied the datagrams
// (socket queue empty, every datagram read, every dpmd thread idle),
// which costs dpmd nothing and is not part of the operation.
func (s *telemetryStream) drive(ctx context.Context, d *daemon, timed func(time.Time)) (*telemetryRun, error) {
	conn, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: d.udpPort})
	if err != nil {
		return nil, fmt.Errorf("dialing the ingestion socket: %w", err)
	}
	defer conn.Close()
	run := &telemetryRun{log: &opLog{}}
	if run.sockBase, err = readUDPSocket(d.udpPort); err != nil {
		return nil, err
	}
	inBase, err := udpInDatagrams()
	if err != nil {
		return nil, err
	}
	period := time.Second / windowRate
	start := time.Now()
	free := start
	timedStart := start.Add(time.Duration(s.warm) * period)
	timed(timedStart)
	for w, dgs := range s.windows {
		due := start.Add(time.Duration(w) * period)
		sleepUntil(due)
		began := time.Now()
		msg, confirm := s.window(ctx, d, conn, dgs, inBase+run.sent)
		run.sent += uint64(len(dgs))
		done := time.Now()
		lat, lag := opTiming(due, free, began, done)
		free = done
		run.log.attempted++
		if msg != "" {
			run.log.fail(fmt.Sprintf("window %d: %s", w, msg))
			continue
		}
		if w >= s.warm {
			run.log.record(lat-confirm, done)
			run.log.lag = append(run.log.lag, lag)
			run.confirm = append(run.confirm, confirm)
		}
	}
	run.elapsed = time.Since(timedStart)
	if run.sockEnd, err = readUDPSocket(d.udpPort); err != nil {
		return nil, err
	}
	return run, nil
}

// window sends one window's datagrams, confirms dpmd applied them and
// flushes. It returns a failure message ("" on success) and the time
// spent confirming.
func (s *telemetryStream) window(ctx context.Context, d *daemon, conn *net.UDPConn, dgs [][]byte, wantIn uint64) (string, time.Duration) {
	for i, dg := range dgs {
		if i%32 == 31 {
			if err := waitSocketBelow(d.udpPort, socketHighWater); err != nil {
				return err.Error(), 0
			}
		}
		if _, err := conn.Write(dg); err != nil {
			return fmt.Sprintf("sending a datagram: %v", err), 0
		}
	}
	t0 := time.Now()
	if err := waitApplied(d, wantIn+uint64(len(dgs))); err != nil {
		return err.Error(), time.Since(t0)
	}
	confirm := time.Since(t0)
	status, reply, err := d.post(ctx, "/v1/ingest/flush", nil)
	if err != nil {
		return fmt.Sprintf("flush: %v", err), confirm
	}
	if status != http.StatusOK {
		return fmt.Sprintf("flush: status %d: %.120s", status, reply), confirm
	}
	var res ingest.FlushResult
	if err := json.Unmarshal(reply, &res); err != nil {
		return fmt.Sprintf("flush reply: %v", err), confirm
	}
	if res.Devices != len(dgs) || res.SlotsClosed != len(dgs) {
		return fmt.Sprintf("flush closed %d slots over %d devices, want %d", res.SlotsClosed, res.Devices, len(dgs)), confirm
	}
	return "", confirm
}

// waitSocketBelow pauses while dpmd's socket queue holds more than
// limit bytes.
func waitSocketBelow(port int, limit uint64) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		sk, err := readUDPSocket(port)
		if err != nil {
			return err
		}
		if sk.rxQueue <= limit {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dpmd left %d bytes unread for 2 s", sk.rxQueue)
		}
		sleepUntil(time.Now().Add(pollInterval))
	}
}

// waitApplied returns once dpmd has read every datagram sent so far
// (the namespace's delivered-datagram count reached want and the
// socket queue is empty) and every dpmd thread is idle, so the shard
// goroutines have applied all of them. A datagram lost on the way never
// arrives; the wait then times out and the window fails.
func waitApplied(d *daemon, want uint64) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		in, err := udpInDatagrams()
		if err != nil {
			return err
		}
		if in >= want {
			sk, err := readUDPSocket(d.udpPort)
			if err != nil {
				return err
			}
			if sk.rxQueue == 0 {
				idle, err := procIdle(d.pid())
				if err != nil {
					return err
				}
				if idle {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("datagrams not applied within 2 s (%d of %d delivered)", in, want)
		}
		sleepUntil(time.Now().Add(pollInterval))
	}
}

// drainedDevice is one checkpoint dpmd's /v1/fleet/drain returned.
type drainedDevice struct {
	id     string
	slot   int
	charge float64
	plan   []float64
}

func (d *daemon) drain(ctx context.Context) ([]drainedDevice, error) {
	status, reply, err := d.post(ctx, "/v1/fleet/drain", nil)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("drain: status %d: %.120s", status, reply)
	}
	var resp server.FleetDrainResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return nil, fmt.Errorf("drain reply: %w", err)
	}
	out := make([]drainedDevice, len(resp.Devices))
	for i, dv := range resp.Devices {
		out[i] = drainedDevice{id: dv.DeviceID, slot: dv.Slot, charge: dv.ChargeJ, plan: dv.State.Plan}
	}
	return out, nil
}

// telemetryTally is the end-of-run reconciliation of one telemetry
// drive against its counters and the in-process replay.
type telemetryTally struct {
	windows, devices         int
	sent, received           uint64 // datagrams sent vs dpmd_ingest_datagrams_total
	socketDrops, lineDrops   uint64
	tickErrors, slotsClosed  uint64
	replans, replayReplans   uint64
	outOfBand, stateMismatch int
}

// failures lists every broken invariant with the number of operations
// it spoils; an empty list means the run reconciles.
func (t telemetryTally) failures() (reasons []string, count int) {
	add := func(n int, format string, args ...any) {
		if n > 0 {
			reasons = append(reasons, fmt.Sprintf(format, args...))
			count += n
		}
	}
	diff := func(a, b uint64) int {
		if a > b {
			return int(a - b)
		}
		return int(b - a)
	}
	add(diff(t.sent, t.received), "sent %d datagrams, dpmd received %d", t.sent, t.received)
	add(int(t.socketDrops), "the ingestion socket dropped %d datagrams", t.socketDrops)
	add(int(t.lineDrops), "dpmd dropped %d lines", t.lineDrops)
	add(int(t.tickErrors), "%d fleet tick errors", t.tickErrors)
	want := uint64(t.windows * t.devices)
	add(diff(t.slotsClosed, want), "closed %d slots, want %d windows × %d devices", t.slotsClosed, t.windows, t.devices)
	add(diff(t.replans, t.replayReplans), "dpmd fired %d replans, the replay %d", t.replans, t.replayReplans)
	add(t.outOfBand, "%d drained charges outside [Cmin, Cmax]", t.outOfBand)
	add(t.stateMismatch, "%d drained sessions differ from the replay", t.stateMismatch)
	return reasons, count
}

// compareDrained checks dpmd's drained checkpoints against the replay's
// and the battery band, returning (out of band, mismatched) counts.
func compareDrained(got []drainedDevice, want []fleet.Drained, cmin, cmax float64) (outOfBand, mismatch int) {
	byID := make(map[string]fleet.Drained, len(want))
	for _, w := range want {
		byID[w.DeviceID] = w
	}
	for _, g := range got {
		if g.charge < cmin-bandTolerance || g.charge > cmax+bandTolerance {
			outOfBand++
		}
		w, ok := byID[g.id]
		if !ok || w.Slot != g.slot || math.Float64bits(w.ChargeJ) != math.Float64bits(g.charge) || !sameFloats(w.State.Plan, g.plan) {
			mismatch++
		}
		delete(byID, g.id)
	}
	return outOfBand, mismatch + len(byID)
}

// telemetryMirror is the telemetry loop rebuilt in process: an
// ingestion daemon without a socket, a fleet manager, and a bridge
// between them that does what dpmd's does — ticks on every closed slot,
// re-registration from the forecasts on a divergence replan.
type telemetryMirror struct {
	fleet  *fleet.Manager
	daemon *ingest.Daemon
	stages *obs.HistogramVec
	tr     *tracer
	pcfg   params.Config

	mu  sync.Mutex
	reg map[string]mirrorReg
	req int64 // the window whose flush is running

	// Shadow forecasters time predict's Observe+Predict on the
	// streamed periods (traced replays only).
	preds map[string][2]predict.Predictor
	obs   map[string][2][]float64
}

type mirrorReg struct {
	sc     trace.Scenario
	charge float64
}

func newTelemetryMirror(tr *tracer) (*telemetryMirror, error) {
	var hw *scenario.Hardware
	pcfg, err := hw.WithDefaults().ParamsConfig()
	if err != nil {
		return nil, err
	}
	fm, err := fleet.New(fleet.Config{})
	if err != nil {
		return nil, err
	}
	m := &telemetryMirror{
		fleet:  fm,
		tr:     tr,
		pcfg:   pcfg,
		reg:    map[string]mirrorReg{},
		stages: obs.NewHistogramVec("perfbench_stage_seconds", "", "stage", nil),
		preds:  map[string][2]predict.Predictor{},
		obs:    map[string][2][]float64{},
	}
	m.daemon, err = ingest.New(ingest.Config{
		Predictor:           ingest.PredictorLastPeriod,
		DivergenceThreshold: 0.25,
		EventEnergyJ:        4.8,
		Replanner:           m,
		Stages:              m.stages,
	})
	if err != nil {
		fm.Close()
		return nil, err
	}
	return m, nil
}

// close stops the daemon before the fleet its flushes call into.
func (m *telemetryMirror) close() {
	m.daemon.Close()
	m.fleet.Close()
}

// register mirrors /v1/fleet/register for device i plus the daemon's
// tracking of it.
func (m *telemetryMirror) register(ctx context.Context, id string, sc trace.Scenario, req int64) error {
	sp := m.tr.start("fleet.register", -1, req)
	res, err := m.fleet.Register(ctx, fleet.RegisterSpec{DeviceID: id, Scenario: sc, Params: m.pcfg, Policy: dpm.Proportional})
	m.tr.end(sp)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.reg[id] = mirrorReg{sc: sc, charge: res.ChargeJ}
	m.mu.Unlock()
	if m.tr != nil {
		m.preds[id] = [2]predict.Predictor{predict.NewLastPeriod(), predict.NewLastPeriod()}
		n := sc.Usage.Len()
		m.obs[id] = [2][]float64{make([]float64, n), make([]float64, n)}
	}
	return m.daemon.Track(id, sc.Usage, sc.Charging)
}

// Tick implements ingest.Replanner like dpmd's bridge: one slot report
// into the device's session, remembering the session's charge.
func (m *telemetryMirror) Tick(ctx context.Context, id string, o ingest.SlotObservation) error {
	parent, req := m.current()
	sp := m.tr.start("fleet.tick", parent, req)
	res, err := m.fleet.Tick(ctx, fleet.TickSpec{
		DeviceID: id,
		Reports:  []pipeline.SlotReport{{UsedJ: o.UsedJ, SuppliedJ: o.SuppliedJ}},
	})
	m.tr.end(sp)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if r, ok := m.reg[id]; ok {
		r.charge = res.ChargeJ
		m.reg[id] = r
	}
	m.mu.Unlock()
	return nil
}

// Replan implements ingest.Replanner like dpmd's bridge: re-register
// the device from the forecasts, keeping its battery band and carrying
// its last charge over.
func (m *telemetryMirror) Replan(ctx context.Context, id string, usage, charging *schedule.Grid) error {
	m.mu.Lock()
	r, ok := m.reg[id]
	m.mu.Unlock()
	if !ok {
		return fleet.ErrUnknownDevice
	}
	sc := r.sc
	sc.Usage = usage
	sc.Charging = charging
	sc.InitialCharge = math.Min(math.Max(r.charge, sc.CapacityMin), sc.CapacityMax)
	parent, req := m.current()
	sp := m.tr.start("fleet.register", parent, req)
	res, err := m.fleet.Register(ctx, fleet.RegisterSpec{DeviceID: id, Scenario: sc, Params: m.pcfg, Policy: dpm.Proportional})
	m.tr.end(sp)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.reg[id] = mirrorReg{sc: sc, charge: res.ChargeJ}
	m.mu.Unlock()
	return nil
}

func (m *telemetryMirror) current() (int32, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr.currentParent(), m.req
}

// window replays one flush window: parse and inject every datagram,
// then flush. With a tracer, each call is a span of the window's
// request id, and at every period wrap the shadow forecasters observe
// the streamed period.
func (m *telemetryMirror) window(ctx context.Context, w int, ids []string, dgs [][]byte, streamed [][2]float64) (ingest.FlushResult, error) {
	id := int64(w)
	root := m.tr.start("window", -1, id)
	defer m.tr.end(root)
	for _, dg := range dgs {
		if m.tr != nil {
			sp := m.tr.start("ingest.parse", root, id)
			for _, line := range splitLines(dg) {
				if _, reason := ingest.ParseLine(line); reason != "" {
					m.tr.end(sp)
					return ingest.FlushResult{}, fmt.Errorf("datagram %q: %s", dg, reason)
				}
			}
			m.tr.end(sp)
		}
		sp := m.tr.start("ingest.inject", root, id)
		m.daemon.Inject(dg)
		m.tr.end(sp)
	}
	fl := m.tr.start("ingest.flush", root, id)
	m.mu.Lock()
	m.req = id
	m.mu.Unlock()
	m.tr.setParent(fl)
	res, err := m.daemon.FlushNow(ctx)
	m.tr.setParent(-1)
	m.tr.end(fl)
	if err != nil || m.tr == nil {
		return res, err
	}
	return res, m.forecast(ids, w, streamed, root)
}

// forecast feeds the shadow forecasters: each device's streamed slot is
// recorded, and at the period's last slot both signals are observed
// and predicted — the Observe+Predict work dpmd's flush does per wrap.
func (m *telemetryMirror) forecast(ids []string, w int, streamed [][2]float64, root int32) error {
	for i, id := range ids {
		o := m.obs[id]
		slot := w % len(o[0])
		o[0][slot], o[1][slot] = streamed[i][0], streamed[i][1]
		if slot != len(o[0])-1 {
			continue
		}
		p := m.preds[id]
		sp := m.tr.start("predict.forecast", root, int64(w))
		for k := 0; k < 2; k++ {
			if err := p[k].Observe(schedule.NewGrid(trace.Tau, o[k])); err != nil {
				m.tr.end(sp)
				return err
			}
			if _, err := p[k].Predict(); err != nil {
				m.tr.end(sp)
				return err
			}
		}
		m.tr.end(sp)
	}
	return nil
}

// splitLines splits a datagram at newlines.
func splitLines(dg []byte) [][]byte {
	var out [][]byte
	start := 0
	for i := 0; i <= len(dg); i++ {
		if i == len(dg) || dg[i] == '\n' {
			if i > start {
				out = append(out, dg[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// replayTelemetry runs the stream's registrations and its first
// windows in process and returns the mirror for inspection; the caller
// closes it.
func replayTelemetry(ctx context.Context, s *telemetryStream, tr *tracer, windows int) (*telemetryMirror, error) {
	m, err := newTelemetryMirror(tr)
	if err != nil {
		return nil, err
	}
	for i, id := range s.ids {
		if err := m.register(ctx, id, s.base[i], int64(1_000_000+i)); err != nil {
			m.close()
			return nil, fmt.Errorf("replaying %s's registration: %w", id, err)
		}
	}
	for w := 0; w < windows && w < len(s.windows); w++ {
		res, err := m.window(ctx, w, s.ids, s.windows[w], s.streamed[w])
		if err != nil {
			m.close()
			return nil, fmt.Errorf("replaying window %d: %w", w, err)
		}
		if res.SlotsClosed != len(s.ids) {
			m.close()
			return nil, fmt.Errorf("replaying window %d: closed %d slots", w, res.SlotsClosed)
		}
	}
	return m, nil
}

// Package ingest closes the paper's §4.3 loop with measured traffic:
// a StatsD-style UDP daemon accepts high-rate per-device counters
// (task arrivals) and gauges (charging power), aggregates them into
// per-flush-window buckets, and at each flush closes one slot of an
// observed schedule.Grid per device. Completed periods
// feed internal/predict estimators into updated usage/charging
// forecasts, and a divergence monitor with hysteresis compares
// observed against planned per-slot — on a sustained breach the next
// period wrap triggers a forecast-driven replan through the Replanner
// (the server bridges it onto fleet.Manager's Tick and Replan).
//
// All device state sits in one map behind one mutex, as each fleet
// partition's sessions do, with an id-sorted slice of the same devices
// that Track and Untrack keep in order, and every operation runs
// inline in its caller's goroutine: the UDP reader (or Inject) parses
// a datagram and applies its samples under the lock, looking each
// device up by the id's bytes, a flush closes every device's window
// under it, and Track, Untrack and DeviceStatuses take it too. The
// only goroutines are the UDP reader and the flush ticker. A reader
// that waits on a flush leaves datagrams in the kernel socket buffer.
//
// A flush runs in two phases. It first closes every device's window
// into a reused buffer of observed slots and ticks them all through
// the Replanner in one call — its TickBatch when it implements
// BatchTicker (the server's fleet bridge does: one fleet.Manager
// TickBatch per flush), otherwise Tick per device through a small
// adapter. It then scores divergence, forecasts and replans device by
// device in id order, so each device's tick still precedes its
// replan. Neither phase sorts or allocates per device.
//
// Lock order: a flush calls the Replanner, and so takes fleet
// partition locks, while it holds the daemon lock; nothing may take
// the daemon lock while holding a fleet lock. The fleet never calls
// into ingest, and the server never holds a fleet lock when it calls
// the daemon.
//
// Every stage is itself observable: dpmd_ingest_* Prometheus families
// (WriteProm), obs spans on the flush→forecast→replan pipeline
// (FlushNow records a span tree whose size does not grow with the
// device count on a window without period wraps; the flush's ticks
// reach only the stage histograms, as one fleet.tick observation per
// flush through the fleet bridge), and structured log events for
// every triggered replan.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/obs"
	"dpm/internal/predict"
	"dpm/internal/scenario"
	"dpm/internal/schedule"
)

// ErrClosed reports an operation on a closed daemon.
var ErrClosed = errors.New("ingest: daemon closed")

// SlotObservation is one closed flush window, converted to the
// energy-report form Algorithm 3 consumes.
type SlotObservation struct {
	// Slot is the period-relative slot index the window closed.
	Slot int
	// UsedJ is the observed task energy over the slot (events ×
	// EventEnergyJ).
	UsedJ float64
	// SuppliedJ is the observed charging energy over the slot (mean
	// gauge watts × τ).
	SuppliedJ float64
}

// Replanner receives the loop's outputs. The server implements it on
// top of internal/fleet; tests stub it. Its methods run under the
// daemon lock, so they must not call back into the Daemon. A Replanner
// that also implements BatchTicker takes each flush's ticks in one
// call.
type Replanner interface {
	// Tick streams one closed slot's observed energies into the
	// device's live session.
	Tick(ctx context.Context, deviceID string, obs SlotObservation) error
	// Replan rebuilds the device's session around the new forecasts —
	// called only after a sustained divergence breach, at a period
	// boundary, with both forecast grids available.
	Replan(ctx context.Context, deviceID string, usage, charging *schedule.Grid) error
}

// SlotTick is one device's closed window in a flush's batch of ticks.
type SlotTick struct {
	DeviceID string
	SlotObservation
}

// BatchTicker is an optional upgrade of Replanner, found by type
// assertion as io.WriterTo is: a flush hands it every device's closed
// slot at once, in device-id order, instead of calling Tick per
// device. errs[i] receives ticks[i]'s error, nil on success. Both
// slices are reused by the next flush and must not be retained. It
// runs under the daemon lock, like Tick.
type BatchTicker interface {
	TickBatch(ctx context.Context, ticks []SlotTick, errs []error)
}

// tickEach adapts a Replanner without TickBatch: one Tick per device.
type tickEach struct{ Replanner }

func (r tickEach) TickBatch(ctx context.Context, ticks []SlotTick, errs []error) {
	for i := range ticks {
		errs[i] = r.Tick(ctx, ticks[i].DeviceID, ticks[i].SlotObservation)
	}
}

// Predictor selectors for Config.Predictor.
const (
	PredictorLastPeriod    = "last-period"
	PredictorMovingAverage = "moving-average"
	PredictorExponential   = "exponential"
)

// Config tunes the daemon.
type Config struct {
	// Addr is the UDP listen address; empty runs without a listener
	// (samples arrive only via Inject — tests).
	Addr string
	// FlushInterval closes one slot per device each interval. 0
	// disables the timer: flushes happen only via FlushNow (the
	// deterministic test/ops mode). The wall-clock interval is
	// decoupled from the scenario's τ — each window maps onto one
	// τ-slot, so a 100 ms interval replays a 4.8 s slot at 48×.
	FlushInterval time.Duration
	// Predictor selects the forecast estimator: "last-period"
	// (default), "moving-average" or "exponential".
	Predictor string
	// DivergenceThreshold is the per-slot relative error above which
	// a slot counts as breached (default 0.25).
	DivergenceThreshold float64
	// EventEnergyJ converts counted events to joules (default 1).
	EventEnergyJ float64
	// MaxDevices caps tracked-device cardinality (default 1024).
	MaxDevices int
	// Replanner receives ticks and divergence replans; nil means
	// observe-only (forecasts still update).
	Replanner Replanner
	// Stages, when set, receives the flush/forecast/replan span
	// durations; Log, when set, receives structured events for
	// triggered replans and tick failures.
	Stages *obs.HistogramVec
	Log    *obs.Logger
}

func (c *Config) setDefaults() {
	if c.Predictor == "" {
		c.Predictor = PredictorLastPeriod
	}
	if c.DivergenceThreshold == 0 {
		c.DivergenceThreshold = 0.25
	}
	if c.EventEnergyJ == 0 {
		c.EventEnergyJ = 1
	}
	if c.MaxDevices == 0 {
		c.MaxDevices = 1024
	}
}

// Forecast and divergence tuning, fixed for every daemon.
const (
	// movingAverageWindow is the moving-average window in periods.
	movingAverageWindow = 4
	// exponentialAlpha is the exponential smoothing weight.
	exponentialAlpha = 0.4
	// hysteresisUp is the consecutive breached slots required to arm
	// a replan; hysteresisDown the consecutive clear slots required
	// to re-arm after one fires. Together they keep a
	// boundary-oscillating signal from flapping replans.
	hysteresisUp   = 3
	hysteresisDown = 2
)

// newPredictor builds one estimator from the daemon's selector — the
// factory Track uses per device and signal.
func newPredictor(name string) (predict.Predictor, error) {
	switch name {
	case PredictorLastPeriod:
		return predict.NewLastPeriod(), nil
	case PredictorMovingAverage:
		return predict.NewMovingAverage(movingAverageWindow)
	case PredictorExponential:
		return predict.NewExponential(exponentialAlpha)
	}
	return nil, fmt.Errorf("ingest: unknown predictor %q (want %s, %s or %s)",
		name, PredictorLastPeriod, PredictorMovingAverage, PredictorExponential)
}

// divergenceFloorW keeps the relative error meaningful where the plan
// is (near-)zero: |obs−plan| is divided by max(|plan|, floor).
const divergenceFloorW = 0.1

// Daemon is one ingestion instance.
type Daemon struct {
	cfg  Config
	quit chan struct{}
	wg   sync.WaitGroup // reader + flush ticker

	// mu guards the fields from closed to lastFlush. Each operation
	// runs inline under it, so a Close that takes it waits out an
	// in-flight flush.
	mu      sync.Mutex
	closed  bool
	devices map[string]*device
	// sorted holds the devices of the map in id order; Track and
	// Untrack keep it so, and flushes and status reads walk it.
	sorted []*device
	// ticks and tickErrs are FlushNow's reused batch buffers.
	ticks     []SlotTick
	tickErrs  []error
	conn      *net.UDPConn
	lastTrace *obs.Trace
	lastFlush time.Time

	// The counters are lock-free for Stats; deviceN mirrors
	// len(devices).
	datagrams  atomic.Uint64
	lines      atomic.Uint64
	parsed     atomic.Uint64
	applied    atomic.Uint64
	slotsTotal atomic.Uint64
	flushes    atomic.Uint64
	replans    atomic.Uint64
	tickErrors atomic.Uint64
	deviceN    atomic.Int64
	drops      []atomic.Uint64 // indexed like DropReasons

	flushHist *obs.HistogramVec
	// batch is the Replanner's BatchTicker, or its per-device
	// adapter; nil without a Replanner.
	batch BatchTicker
}

// dropIndex maps a drop reason to its counter slot.
var dropIndex = func() map[string]int {
	m := make(map[string]int, len(DropReasons))
	for i, r := range DropReasons {
		m[r] = i
	}
	return m
}()

// New validates the configuration and builds the daemon (the UDP
// listener and flush timer start on Start).
func New(cfg Config) (*Daemon, error) {
	cfg.setDefaults()
	if _, err := newPredictor(cfg.Predictor); err != nil {
		return nil, err
	}
	if cfg.DivergenceThreshold < 0 || !scenario.IsFinite(cfg.DivergenceThreshold) {
		return nil, fmt.Errorf("ingest: divergence threshold %g must be finite and non-negative", cfg.DivergenceThreshold)
	}
	if cfg.EventEnergyJ <= 0 || !scenario.IsFinite(cfg.EventEnergyJ) {
		return nil, fmt.Errorf("ingest: event energy %g J must be finite and positive", cfg.EventEnergyJ)
	}
	if cfg.FlushInterval < 0 {
		return nil, fmt.Errorf("ingest: negative flush interval %s", cfg.FlushInterval)
	}
	d := &Daemon{
		cfg:     cfg,
		devices: make(map[string]*device),
		quit:    make(chan struct{}),
		drops:   make([]atomic.Uint64, len(DropReasons)),
		flushHist: obs.NewHistogramVec("dpmd_ingest_flush_duration_seconds",
			"Wall time of one full flush pass (all devices), by outcome.", "result", nil),
	}
	if bt, ok := cfg.Replanner.(BatchTicker); ok {
		d.batch = bt
	} else if cfg.Replanner != nil {
		d.batch = tickEach{cfg.Replanner}
	}
	return d, nil
}

// Start binds the UDP listener (when configured) and starts the flush
// timer (when FlushInterval > 0).
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.cfg.Addr != "" && d.conn == nil {
		addr, err := net.ResolveUDPAddr("udp", d.cfg.Addr)
		if err != nil {
			return fmt.Errorf("ingest: resolve %s: %w", d.cfg.Addr, err)
		}
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return fmt.Errorf("ingest: listen %s: %w", d.cfg.Addr, err)
		}
		d.conn = conn
		d.wg.Add(1)
		go d.readLoop(conn)
	}
	if d.cfg.FlushInterval > 0 {
		d.wg.Add(1)
		go d.flushLoop()
	}
	return nil
}

// Addr returns the bound UDP address, or "" without a listener.
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn == nil {
		return ""
	}
	return d.conn.LocalAddr().String()
}

// Close stops the listener and the flush timer. It waits out an
// in-flight flush, so no flush runs after it returns; it is
// idempotent and leaves no goroutines behind.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	conn := d.conn
	d.mu.Unlock()
	close(d.quit)
	if conn != nil {
		conn.Close() //nolint:errcheck
	}
	d.wg.Wait()
}

// readLoop drains datagrams until the connection closes.
func (d *Daemon) readLoop(conn *net.UDPConn) {
	defer d.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-d.quit:
				return
			default:
			}
			// Transient errors (e.g. ICMP-induced) back off briefly;
			// a closed socket lands in the quit case next read.
			time.Sleep(time.Millisecond)
			continue
		}
		d.datagrams.Add(1)
		d.ingestDatagram(buf[:n])
	}
}

// Inject feeds one datagram's bytes directly — the test entry point
// bypassing UDP delivery jitter.
func (d *Daemon) Inject(data []byte) {
	d.datagrams.Add(1)
	d.ingestDatagram(data)
}

// ingestDatagram parses the newline-separated lines and applies each
// sample to its device's window, in arrival order, under the lock.
func (d *Daemon) ingestDatagram(data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			// Trailing newline / blank separator: not a counted line.
			continue
		}
		d.lines.Add(1)
		device, s, reason := parseLine(line)
		if reason != "" {
			d.drop(reason)
			continue
		}
		d.parsed.Add(1)
		d.apply(device, s)
	}
}

func (d *Daemon) drop(reason string) {
	if i, ok := dropIndex[reason]; ok {
		d.drops[i].Add(1)
	}
}

// flushLoop drives periodic flushes.
func (d *Daemon) flushLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), 2*d.cfg.FlushInterval+time.Second)
			d.FlushNow(ctx) //nolint:errcheck
			cancel()
		}
	}
}

// apply accumulates one parsed sample into its device's window; the
// lookup keys on the id's bytes, which does not allocate. Callers hold
// d.mu.
func (d *Daemon) apply(device []byte, s Sample) {
	dev, ok := d.devices[string(device)]
	if !ok {
		d.drop(DropUntracked)
		return
	}
	switch s.Kind {
	case KindCounter:
		dev.events += s.Value
	case KindGauge:
		if s.Delta {
			dev.gaugeLevel += s.Value
		} else {
			dev.gaugeLevel = s.Value
		}
		if dev.gaugeLevel < 0 {
			dev.gaugeLevel = 0
		}
		dev.gaugeSum += dev.gaugeLevel
		dev.gaugeCount++
	}
	d.applied.Add(1)
}

// device is one tracked device's aggregation, forecast and
// divergence state. Guarded by the daemon lock.
type device struct {
	id    string
	step  float64
	slots int

	// plannedUsage/plannedCharging are the per-slot watts the live
	// plan was built from — registration values until a divergence
	// replan installs the forecasts.
	plannedUsage    []float64
	plannedCharging []float64

	// Window accumulators (reset each flush).
	events     float64
	gaugeLevel float64
	gaugeSum   float64
	gaugeCount int

	// Period accumulators.
	slot        int
	obsUsage    []float64
	obsCharging []float64

	usagePred        predict.Predictor
	chargingPred     predict.Predictor
	forecastUsage    *schedule.Grid
	forecastCharging *schedule.Grid

	divergence   float64
	breachStreak int
	clearStreak  int
	pending      bool
	cooldown     bool

	periods uint64
	replans uint64
}

// Track registers (or re-registers) a device: the planned grids
// establish the slot geometry the observed grids mirror. Re-tracking
// with the same geometry updates the plan in place and keeps the
// predictor history; a geometry change resets the device.
func (d *Daemon) Track(deviceID string, usage, charging *schedule.Grid) error {
	if deviceID == "" {
		return fmt.Errorf("ingest: empty device id")
	}
	if usage == nil || charging == nil {
		return fmt.Errorf("ingest: device %s: nil planned grid", deviceID)
	}
	if usage.Step != charging.Step || usage.Len() != charging.Len() {
		return fmt.Errorf("ingest: device %s: usage %d×%gs vs charging %d×%gs",
			deviceID, usage.Len(), usage.Step, charging.Len(), charging.Step)
	}
	if usage.Len() == 0 {
		return fmt.Errorf("ingest: device %s: empty planned grid", deviceID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	dev, ok := d.devices[deviceID]
	if ok && dev.step == usage.Step && dev.slots == usage.Len() {
		copy(dev.plannedUsage, usage.Values)
		copy(dev.plannedCharging, charging.Values)
		return nil
	}
	if !ok && len(d.devices) >= d.cfg.MaxDevices {
		d.drop(DropCardinality)
		return fmt.Errorf("ingest: tracked-device cap %d reached", d.cfg.MaxDevices)
	}
	up, _ := newPredictor(d.cfg.Predictor)
	cp, _ := newPredictor(d.cfg.Predictor)
	n := usage.Len()
	dev = &device{
		id:              deviceID,
		step:            usage.Step,
		slots:           n,
		plannedUsage:    append([]float64(nil), usage.Values...),
		plannedCharging: append([]float64(nil), charging.Values...),
		obsUsage:        make([]float64, n),
		obsCharging:     make([]float64, n),
		usagePred:       up,
		chargingPred:    cp,
	}
	d.devices[deviceID] = dev
	i, found := d.position(deviceID)
	if found {
		d.sorted[i] = dev
	} else {
		d.sorted = slices.Insert(d.sorted, i, dev)
	}
	d.deviceN.Store(int64(len(d.devices)))
	return nil
}

// Untrack drops a device's ingestion state (fleet drain).
func (d *Daemon) Untrack(deviceID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if i, found := d.position(deviceID); found {
		d.sorted = slices.Delete(d.sorted, i, i+1)
	}
	delete(d.devices, deviceID)
	d.deviceN.Store(int64(len(d.devices)))
}

// position finds deviceID in the sorted slice: its index, or where it
// would be inserted. Callers hold d.mu.
func (d *Daemon) position(deviceID string) (int, bool) {
	return slices.BinarySearchFunc(d.sorted, deviceID, func(dev *device, id string) int {
		return strings.Compare(dev.id, id)
	})
}

// FlushResult summarizes one flush pass.
type FlushResult struct {
	// Devices is the tracked-device count at flush time; SlotsClosed
	// the windows closed (= Devices); Replans the divergence replans
	// this pass fired.
	Devices     int `json:"devices"`
	SlotsClosed int `json:"slotsClosed"`
	Replans     int `json:"replans"`
}

// FlushNow closes the current window of every tracked device, in two
// phases under the lock. First each device's accumulated counters
// become one observed slot, and the flush hands every slot to the
// Replanner in one batch (its TickBatch, or Tick per device). Then,
// device by device in id order, divergence is scored and, at period
// boundaries, the predictors re-forecast (firing a pending replan), so
// a device's tick still precedes its replan. The ticks get a context
// that records only into the stage histograms, so the recorded span
// tree is one flush span plus the forecast and replan spans of the
// devices whose period wrapped.
func (d *Daemon) FlushNow(ctx context.Context) (FlushResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return FlushResult{}, ErrClosed
	}
	start := time.Now()
	rec := &obs.Recorder{Stages: d.cfg.Stages, Trace: obs.NewTrace()}
	ctx = obs.WithRecorder(ctx, rec)
	ctx, span := obs.StartSpan(ctx, "ingest.flush")
	ticks := d.ticks[:0]
	for _, dev := range d.sorted {
		ticks = append(ticks, SlotTick{DeviceID: dev.id, SlotObservation: d.closeWindow(dev)})
	}
	d.ticks = ticks
	errs := slices.Grow(d.tickErrs[:0], len(ticks))[:len(ticks)]
	d.tickErrs = errs
	if d.batch != nil {
		tickCtx := obs.WithRecorder(ctx, &obs.Recorder{Stages: d.cfg.Stages})
		d.batch.TickBatch(tickCtx, ticks, errs)
	}
	res := FlushResult{Devices: len(ticks), SlotsClosed: len(ticks)}
	for i, dev := range d.sorted {
		if errs[i] != nil {
			d.tickErrors.Add(1)
			if d.cfg.Log != nil {
				d.cfg.Log.Event("ingest_tick_error",
					obs.F("device", dev.id),
					obs.F("slot", dev.slot),
					obs.F("error", errs[i].Error()))
			}
		}
		if d.score(ctx, dev) {
			res.Replans++
		}
	}
	clear(errs) // hold no error past the flush
	span.SetAttr("devices", res.Devices)
	span.SetAttr("replans", res.Replans)
	span.End()
	d.flushes.Add(1)
	d.flushHist.Observe("ok", time.Since(start).Seconds())
	d.lastTrace = rec.Trace
	d.lastFlush = start
	return res, nil
}

func clampPower(w float64) float64 {
	if math.IsNaN(w) || w < 0 {
		return 0
	}
	if w > scenario.MaxPowerW {
		return scenario.MaxPowerW
	}
	return w
}

// closeWindow turns the device's window into its observed slot,
// recorded at the current slot index, and resets the window.
func (d *Daemon) closeWindow(dev *device) SlotObservation {
	usageW := clampPower(dev.events * d.cfg.EventEnergyJ / dev.step)
	chargeW := dev.gaugeLevel // carry-forward when the window was silent
	if dev.gaugeCount > 0 {
		chargeW = dev.gaugeSum / float64(dev.gaugeCount)
	}
	chargeW = clampPower(chargeW)
	dev.events = 0
	dev.gaugeSum = 0
	dev.gaugeCount = 0
	dev.obsUsage[dev.slot] = usageW
	dev.obsCharging[dev.slot] = chargeW
	d.slotsTotal.Add(1)
	return SlotObservation{Slot: dev.slot, UsedJ: usageW * dev.step, SuppliedJ: chargeW * dev.step}
}

// score runs the divergence state machine on the slot closeWindow just
// recorded, then advances the slot. Reports whether a replan fired.
func (d *Daemon) score(ctx context.Context, dev *device) bool {
	// Divergence with hysteresis: a slot is breached when either
	// signal's relative error exceeds the threshold. hysteresisUp
	// consecutive breaches arm a replan (entering cooldown at the same
	// moment, so an oscillating boundary cannot re-arm); the cooldown
	// lifts after hysteresisDown consecutive clear slots.
	rel := func(obs, plan float64) float64 {
		return math.Abs(obs-plan) / math.Max(math.Abs(plan), divergenceFloorW)
	}
	dev.divergence = math.Max(rel(dev.obsUsage[dev.slot], dev.plannedUsage[dev.slot]),
		rel(dev.obsCharging[dev.slot], dev.plannedCharging[dev.slot]))
	if dev.divergence > d.cfg.DivergenceThreshold {
		dev.clearStreak = 0
		dev.breachStreak++
		if !dev.cooldown && dev.breachStreak >= hysteresisUp {
			dev.pending = true
			dev.cooldown = true
		}
	} else {
		dev.breachStreak = 0
		dev.clearStreak++
		if dev.cooldown && !dev.pending && dev.clearStreak >= hysteresisDown {
			dev.cooldown = false
		}
	}

	dev.slot++
	if dev.slot < dev.slots {
		return false
	}
	dev.slot = 0
	dev.periods++
	return d.wrapPeriod(ctx, dev)
}

// wrapPeriod feeds the completed observed period into the predictors
// and, when a replan is pending and forecasts exist, fires it.
func (d *Daemon) wrapPeriod(ctx context.Context, dev *device) bool {
	cfg := &d.cfg
	fctx, fspan := obs.StartSpan(ctx, "ingest.forecast")
	fspan.SetAttr("device", dev.id)
	fspan.SetAttr("period", dev.periods)
	uGrid := schedule.NewGrid(dev.step, append([]float64(nil), dev.obsUsage...))
	cGrid := schedule.NewGrid(dev.step, append([]float64(nil), dev.obsCharging...))
	forecastOK := false
	if err := dev.usagePred.Observe(uGrid); err == nil {
		err = dev.chargingPred.Observe(cGrid)
		if err != nil {
			fspan.SetAttr("error", err.Error())
		}
	} else {
		fspan.SetAttr("error", err.Error())
	}
	fu, uerr := dev.usagePred.Predict()
	fc, cerr := dev.chargingPred.Predict()
	switch {
	case predict.IsInsufficientHistory(uerr) || predict.IsInsufficientHistory(cerr):
		fspan.SetAttr("warmup", true)
	case uerr != nil || cerr != nil:
		// Geometry errors cannot happen (Track pins the geometry);
		// surface whatever did.
		for _, err := range []error{uerr, cerr} {
			if err != nil {
				fspan.SetAttr("error", err.Error())
			}
		}
	default:
		dev.forecastUsage = fu
		dev.forecastCharging = fc
		forecastOK = true
	}
	fspan.End()

	if !dev.pending || !forecastOK || cfg.Replanner == nil {
		return false
	}
	rctx, rspan := obs.StartSpan(fctx, "ingest.replan")
	rspan.SetAttr("device", dev.id)
	rspan.SetAttr("divergence", dev.divergence)
	err := cfg.Replanner.Replan(rctx, dev.id, dev.forecastUsage.Clone(), dev.forecastCharging.Clone())
	rspan.End()
	if err != nil {
		// Keep pending: the next period wrap retries with a fresher
		// forecast.
		d.tickErrors.Add(1)
		if cfg.Log != nil {
			cfg.Log.Event("ingest_replan_error",
				obs.F("device", dev.id),
				obs.F("error", err.Error()))
		}
		return false
	}
	copy(dev.plannedUsage, dev.forecastUsage.Values)
	copy(dev.plannedCharging, dev.forecastCharging.Values)
	dev.pending = false
	dev.breachStreak = 0
	dev.replans++
	d.replans.Add(1)
	if cfg.Log != nil {
		cfg.Log.Event("ingest_replan",
			obs.F("device", dev.id),
			obs.F("period", dev.periods),
			obs.F("divergence", dev.divergence),
			obs.F("predictor", cfg.Predictor))
	}
	return true
}

// Stats is a point-in-time snapshot of the daemon's counters.
type Stats struct {
	Datagrams      uint64            `json:"datagrams"`
	Lines          uint64            `json:"lines"`
	Parsed         uint64            `json:"parsed"`
	SamplesApplied uint64            `json:"samplesApplied"`
	Drops          map[string]uint64 `json:"drops"`
	SlotsClosed    uint64            `json:"slotsClosed"`
	Flushes        uint64            `json:"flushes"`
	Replans        uint64            `json:"replans"`
	TickErrors     uint64            `json:"tickErrors"`
	Devices        int               `json:"devices"`
}

// Stats snapshots the counters (lock-free; device state untouched).
func (d *Daemon) Stats() Stats {
	drops := make(map[string]uint64, len(DropReasons))
	for i, r := range DropReasons {
		drops[r] = d.drops[i].Load()
	}
	return Stats{
		Datagrams:      d.datagrams.Load(),
		Lines:          d.lines.Load(),
		Parsed:         d.parsed.Load(),
		SamplesApplied: d.applied.Load(),
		Drops:          drops,
		SlotsClosed:    d.slotsTotal.Load(),
		Flushes:        d.flushes.Load(),
		Replans:        d.replans.Load(),
		TickErrors:     d.tickErrors.Load(),
		Devices:        int(d.deviceN.Load()),
	}
}

// DeviceStatus is one device's loop state for /v1/ingest/stats.
type DeviceStatus struct {
	DeviceID         string    `json:"deviceId"`
	Slot             int       `json:"slot"`
	Periods          uint64    `json:"periods"`
	Divergence       float64   `json:"divergence"`
	BreachStreak     int       `json:"breachStreak"`
	PendingReplan    bool      `json:"pendingReplan"`
	Replans          uint64    `json:"replans"`
	ForecastUsage    []float64 `json:"forecastUsage,omitempty"`
	ForecastCharging []float64 `json:"forecastCharging,omitempty"`
}

// DeviceStatuses snapshots every tracked device, sorted by id.
func (d *Daemon) DeviceStatuses() []DeviceStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	out := make([]DeviceStatus, 0, len(d.sorted))
	for _, dev := range d.sorted {
		ds := DeviceStatus{
			DeviceID:      dev.id,
			Slot:          dev.slot,
			Periods:       dev.periods,
			Divergence:    dev.divergence,
			BreachStreak:  dev.breachStreak,
			PendingReplan: dev.pending,
			Replans:       dev.replans,
		}
		if dev.forecastUsage != nil {
			ds.ForecastUsage = append([]float64(nil), dev.forecastUsage.Values...)
			ds.ForecastCharging = append([]float64(nil), dev.forecastCharging.Values...)
		}
		out = append(out, ds)
	}
	return out
}

// LastFlush returns the most recent flush's wall time and span tree,
// built on demand from the recorded trace.
func (d *Daemon) LastFlush() (time.Time, []obs.SpanNode) {
	d.mu.Lock()
	at, tr := d.lastFlush, d.lastTrace
	d.mu.Unlock()
	if tr == nil {
		return at, nil
	}
	return at, tr.Tree()
}

// WriteProm renders the dpmd_ingest_* families:
//
//   - dpmd_ingest_datagrams_total / lines / lines_parsed /
//     lines_dropped{reason} / samples_applied   counters
//   - dpmd_ingest_slots_closed_total / flushes / replans / tick_errors
//   - dpmd_ingest_devices                       gauge (cardinality)
//   - dpmd_ingest_divergence_score{device}      gauge
//   - dpmd_ingest_flush_duration_seconds        histogram
func (d *Daemon) WriteProm(w io.Writer) error {
	st := d.Stats()
	for _, c := range []struct {
		name, help string
		value      uint64
	}{
		{"dpmd_ingest_datagrams_total", "UDP datagrams received.", st.Datagrams},
		{"dpmd_ingest_lines_total", "StatsD lines received (parsed or dropped).", st.Lines},
		{"dpmd_ingest_lines_parsed_total", "Lines parsed into samples.", st.Parsed},
		{"dpmd_ingest_samples_applied_total", "Samples accumulated into a tracked device's window.", st.SamplesApplied},
		{"dpmd_ingest_slots_closed_total", "Flush windows closed into observed slots.", st.SlotsClosed},
		{"dpmd_ingest_flushes_total", "Flush passes.", st.Flushes},
		{"dpmd_ingest_replans_total", "Divergence-triggered fleet replans.", st.Replans},
		{"dpmd_ingest_tick_errors_total", "Fleet tick/replan bridge failures.", st.TickErrors},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.value); err != nil {
			return err
		}
	}
	const dropped = "dpmd_ingest_lines_dropped_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Lines and samples shed, by structured reason.\n# TYPE %s counter\n",
		dropped, dropped); err != nil {
		return err
	}
	for _, r := range DropReasons {
		if err := obs.WriteLabeledCounter(w, dropped, [][2]string{{"reason", r}}, st.Drops[r]); err != nil {
			return err
		}
	}
	if err := obs.WriteGauge(w, "dpmd_ingest_devices",
		"Tracked devices (per-device cardinality).", float64(st.Devices)); err != nil {
		return err
	}
	const score = "dpmd_ingest_divergence_score"
	if _, err := fmt.Fprintf(w, "# HELP %s Last observed-vs-planned relative error, by device.\n# TYPE %s gauge\n",
		score, score); err != nil {
		return err
	}
	// Render the per-device lines from the id-sorted devices under the
	// lock, into one buffer written after it is released: a scrape
	// copies no forecast grid and never holds the lock across a write.
	var buf []byte
	d.mu.Lock()
	if !d.closed {
		buf = make([]byte, 0, len(d.sorted)*(len(score)+48))
		for _, dev := range d.sorted {
			buf = append(buf, score+"{device="...)
			buf = strconv.AppendQuote(buf, dev.id)
			buf = append(buf, "} "...)
			buf = strconv.AppendFloat(buf, dev.divergence, 'g', -1, 64)
			buf = append(buf, '\n')
		}
	}
	d.mu.Unlock()
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return d.flushHist.WriteProm(w)
}

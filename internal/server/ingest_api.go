package server

import (
	"context"
	"net/http"
	"slices"
	"time"

	"dpm/internal/fleet"
	"dpm/internal/ingest"
	"dpm/internal/obs"
	"dpm/internal/pipeline"
	"dpm/internal/schedule"
)

// Ingestion endpoints -----------------------------------------------
//
// When Config.IngestAddr is set, dpmd runs the internal/ingest daemon
// alongside the HTTP API: devices stream StatsD counters/gauges over
// UDP, each flush window closes one observed slot that ticks the
// device's fleet session, and a sustained forecast divergence replans
// the session from the live forecast. The HTTP surface is small:
//
//	GET  /v1/ingest/stats  counters, per-device loop state, last
//	                       flush's span tree
//	POST /v1/ingest/flush  close the current window immediately (the
//	                       deterministic test/ops hook)
//
// Both answer 404 when ingestion is disabled.

// fleetBridge implements ingest.Replanner and ingest.BatchTicker on
// the fleet manager.
type fleetBridge struct {
	fleet *fleet.Manager
	// specs and reports are TickBatch's reused buffers; the daemon
	// calls it under its lock, one flush at a time.
	specs   []fleet.TickSpec
	reports []pipeline.SlotReport
}

// Tick streams one closed flush window into the device's session as a
// completed-slot report — the same Algorithm 3 path /v1/fleet/tick
// drives, minus the HTTP envelope.
func (b *fleetBridge) Tick(ctx context.Context, deviceID string, o ingest.SlotObservation) error {
	_, err := b.fleet.Tick(ctx, fleet.TickSpec{
		DeviceID: deviceID,
		Reports:  []pipeline.SlotReport{{UsedJ: o.UsedJ, SuppliedJ: o.SuppliedJ}},
	})
	return err
}

// TickBatch streams a whole flush's closed windows through one
// fleet.Manager.TickBatch, asking for no results: the loop needs only
// the errors.
func (b *fleetBridge) TickBatch(ctx context.Context, ticks []ingest.SlotTick, errs []error) {
	n := len(ticks)
	b.specs = slices.Grow(b.specs[:0], n)[:n]
	b.reports = slices.Grow(b.reports[:0], n)[:n]
	for i := range ticks {
		t := &ticks[i]
		b.reports[i] = pipeline.SlotReport{UsedJ: t.UsedJ, SuppliedJ: t.SuppliedJ}
		b.specs[i] = fleet.TickSpec{DeviceID: t.DeviceID, Reports: b.reports[i : i+1]}
	}
	b.fleet.TickBatch(ctx, b.specs, nil, errs)
}

// Replan rebuilds the device's session from the live forecasts; see
// fleet.Manager.Replan.
func (b *fleetBridge) Replan(ctx context.Context, deviceID string, usage, charging *schedule.Grid) error {
	_, err := b.fleet.Replan(ctx, deviceID, usage, charging)
	return err
}

// newIngest assembles the daemon (not yet listening) for a server
// whose Config enables ingestion.
func newIngest(s *Server) (*ingest.Daemon, error) {
	return ingest.New(ingest.Config{
		Addr:                s.cfg.IngestAddr,
		FlushInterval:       s.cfg.IngestFlush,
		Predictor:           s.cfg.IngestPredictor,
		DivergenceThreshold: s.cfg.DivergenceThreshold,
		EventEnergyJ:        s.cfg.IngestEventEnergyJ,
		Replanner:           &fleetBridge{fleet: s.fleet},
		Stages:              s.tel.stages,
		Log:                 s.cfg.AccessLog,
	})
}

// ingestTrack hooks a successful /v1/fleet/register into the
// ingestion loop: start aggregating the device's telemetry against
// its planned grids. The fleet session keeps the registration that
// replans rebuild it from.
func (s *Server) ingestTrack(req *FleetRegisterRequest) {
	if s.ingest == nil {
		return
	}
	// The scenario passed validation, so the grids are well-formed;
	// a Track refusal (device cap) still leaves the fleet session
	// usable and is surfaced on the daemon's cardinality counter.
	s.ingest.Track(req.DeviceID, req.Scenario.Usage, req.Scenario.Charging) //nolint:errcheck
}

// ingestUntrack drops drained devices from the ingestion loop.
func (s *Server) ingestUntrack(deviceIDs []string) {
	if s.ingest == nil {
		return
	}
	for _, id := range deviceIDs {
		s.ingest.Untrack(id)
	}
}

// IngestFlushResult is the POST /v1/ingest/flush body: one flush
// pass's summary.
type IngestFlushResult = ingest.FlushResult

// IngestStatsResponse is the GET /v1/ingest/stats body.
type IngestStatsResponse struct {
	// Enabled reports whether the daemon is running.
	Enabled bool `json:"enabled"`
	// Addr is the bound UDP address ("" before Start or when
	// listener-less).
	Addr string `json:"addr,omitempty"`
	// Predictor names the forecast estimator in use.
	Predictor string `json:"predictor,omitempty"`
	// DivergenceThreshold is the per-slot relative-error trigger.
	DivergenceThreshold float64 `json:"divergenceThreshold,omitempty"`
	// Stats are the daemon's counters.
	Stats ingest.Stats `json:"stats"`
	// Devices is every tracked device's loop state, sorted by id.
	Devices []ingest.DeviceStatus `json:"devices,omitempty"`
	// LastFlushSpans is the most recent flush's span tree — the
	// flush → forecast → replan pipeline stages.
	LastFlushSpans []obs.SpanNode `json:"lastFlushSpans,omitempty"`
}

// handleIngestStats reports the ingestion loop's state.
func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeError(w, http.StatusNotFound, "ingestion is disabled; start dpmd with -ingest-addr")
		return
	}
	d := s.ingest
	_, spans := d.LastFlush()
	resp := &IngestStatsResponse{
		Enabled:             true,
		Addr:                d.Addr(),
		Predictor:           s.cfg.IngestPredictor,
		DivergenceThreshold: s.cfg.DivergenceThreshold,
		Stats:               d.Stats(),
		Devices:             d.DeviceStatuses(),
		LastFlushSpans:      spans,
	}
	body, err := marshalBody(resp)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSONBytes(w, body)
}

// handleIngestFlush closes the current window of every tracked device
// immediately — the deterministic ops/test hook behind the same logic
// the flush timer drives.
func (s *Server) handleIngestFlush(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeError(w, http.StatusNotFound, "ingestion is disabled; start dpmd with -ingest-addr")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	res, err := s.ingest.FlushNow(ctx)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	body, err := marshalBody(&res)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSONBytes(w, body)
}

// Ingest exposes the ingestion daemon (tests, embedders); nil when
// ingestion is disabled.
func (s *Server) Ingest() *ingest.Daemon { return s.ingest }

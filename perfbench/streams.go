package main

import (
	"context"
	"fmt"
	"time"

	"dpm/internal/trace"
)

// streamSet holds the seeded inputs of the workload being measured.
type streamSet struct {
	window time.Duration
	hot    *hotStream
	cold   *coldStream
	tel    *telemetryStream
	run    *telemetryRun // the telemetry drive, kept for reconciliation
}

// prepareStreams generates the workload's inputs (and every expected
// reply) before dpmd starts, so neither generation nor the in-process
// oracle competes with the measured window.
func prepareStreams(ctx context.Context, o options) (*streamSet, error) {
	s := &streamSet{window: o.window}
	var err error
	switch o.workload {
	case "plan_hot":
		s.hot, err = newHotStream(ctx, o.seed)
	case "plan_cold":
		s.cold, err = newColdStream(ctx, o.seed, warmup, o.window)
	case "telemetry_loop":
		s.tel, err = newTelemetryStream(o.seed, warmWindows+int(o.window.Seconds()*windowRate))
	}
	if err != nil {
		return nil, fmt.Errorf("preparing %s inputs: %w", o.workload, err)
	}
	return s, nil
}

// setup is the workload's preparation of a freshly booted dpmd — the
// cache warm-up or the device registrations — timed into setup_s.
func (s *streamSet) setup(ctx context.Context, workload string, d *daemon) error {
	switch workload {
	case "plan_hot":
		return s.hot.warm(d)
	case "telemetry_loop":
		return s.tel.register(ctx, d)
	}
	return nil
}

// drive runs the measured window, reporting its start to timed.
func (s *streamSet) drive(ctx context.Context, workload string, d *daemon, timed func(time.Time)) (*drive, error) {
	switch workload {
	case "plan_hot":
		log, elapsed := s.hot.drive(d, warmup, s.window, timed)
		return &drive{log: log, elapsed: elapsed}, nil
	case "plan_cold":
		log, elapsed := s.cold.drive(d, timed)
		return &drive{log: log, elapsed: elapsed}, nil
	}
	run, err := s.tel.drive(ctx, d, timed)
	if err != nil {
		return nil, err
	}
	s.run = run
	return &drive{log: run.log, elapsed: run.elapsed, confirm: run.confirm, udpSent: run.sent}, nil
}

// reconcile checks the telemetry run end to end: every datagram
// arrived and applied, every window closed every device's slot, and
// dpmd's sessions equal an in-process replay of the same windows.
func (s *streamSet) reconcile(ctx context.Context, d *daemon, before, after promSnapshot, dr *drive) error {
	drained, err := d.drain(ctx)
	if err != nil {
		return err
	}
	m, err := replayTelemetry(ctx, s.tel, nil, len(s.tel.windows))
	if err != nil {
		return err
	}
	defer m.close()
	want, err := m.fleet.Drain(ctx)
	if err != nil {
		return err
	}
	oob, mismatch := compareDrained(drained, want, trace.DefaultCapacityMin, trace.DefaultCapacityMax)
	t := telemetryTally{
		windows:       len(s.tel.windows),
		devices:       len(s.tel.ids),
		sent:          dr.udpSent,
		received:      uint64(delta(before, after, "dpmd_ingest_datagrams_total")),
		socketDrops:   s.run.sockEnd.drops - s.run.sockBase.drops,
		lineDrops:     uint64(delta(before, after, "dpmd_ingest_lines_dropped_total")),
		tickErrors:    uint64(delta(before, after, "dpmd_ingest_tick_errors_total")),
		slotsClosed:   uint64(delta(before, after, "dpmd_ingest_slots_closed_total")),
		replans:       uint64(delta(before, after, "dpmd_ingest_replans_total")),
		replayReplans: m.daemon.Stats().Replans,
		outOfBand:     oob,
		stateMismatch: mismatch,
	}
	dr.checks, dr.spoiled = t.failures()
	return nil
}

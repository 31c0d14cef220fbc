package ingest

import (
	"context"
	"fmt"
	"io"
	"testing"

	"dpm/internal/schedule"
)

// BenchmarkParseLine measures the hot parse path on a representative
// sampled counter line.
func BenchmarkParseLine(b *testing.B) {
	line := []byte("sat-007.events:+3|c|@0.5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, reason := ParseLine(line); reason != "" {
			b.Fatal(reason)
		}
	}
}

// BenchmarkIngestDatagram measures one two-line datagram for a
// tracked device through Inject: split, parse and apply under the
// daemon lock. The device lookup keys on the id's bytes, so the
// datagram allocates nothing.
func BenchmarkIngestDatagram(b *testing.B) {
	d, err := New(Config{EventEnergyJ: 4.8})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	g := schedule.NewGrid(4.8, []float64{1.2, 1.2, 1.2})
	if err := d.Track("sat-007", g, g); err != nil {
		b.Fatal(err)
	}
	datagram := []byte("sat-007.events:+3|c|@0.5\nsat-007.charge:2.4|g\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Inject(datagram)
	}
	b.StopTimer()
	if st := d.Stats(); st.SamplesApplied != uint64(2*b.N) {
		b.Fatalf("%d samples applied over %d datagrams", st.SamplesApplied, b.N)
	}
}

// BenchmarkIngestFlush measures one full flush pass — 64 tracked
// devices, each with a fresh sample window — including the per-device
// slot close, divergence scoring and span capture. It has no
// Replanner, so it prices no fleet tick; BenchmarkIngestFlushFleet in
// internal/server does.
func BenchmarkIngestFlush(b *testing.B) {
	d, err := New(Config{EventEnergyJ: 4.8})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	vals := make([]float64, 12)
	for i := range vals {
		vals[i] = 1.2
	}
	g := schedule.NewGrid(4.8, vals)
	var datagram []byte
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("dev-%03d", i)
		if err := d.Track(id, g, g); err != nil {
			b.Fatal(err)
		}
		datagram = append(datagram, []byte(id+".events:6|c\n"+id+".charge:2.4|g\n")...)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Inject(datagram)
		if _, err := d.FlushNow(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestWriteProm measures one /metrics render of the
// dpmd_ingest_* families over 256 tracked 4-slot devices, each with a
// forecast from one completed period.
func BenchmarkIngestWriteProm(b *testing.B) {
	d, err := New(Config{EventEnergyJ: 4.8})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	g := schedule.NewGrid(4.8, []float64{1.2, 1.2, 1.2, 1.2})
	var datagram []byte
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("dev-%03d", i)
		if err := d.Track(id, g, g); err != nil {
			b.Fatal(err)
		}
		datagram = append(datagram, []byte(id+".events:1|c\n"+id+".charge:1.2|g\n")...)
	}
	ctx := context.Background()
	for s := 0; s < g.Len(); s++ {
		d.Inject(datagram)
		if _, err := d.FlushNow(ctx); err != nil {
			b.Fatal(err)
		}
	}
	if ds := d.DeviceStatuses(); ds[len(ds)-1].ForecastUsage == nil {
		b.Fatal("setup: no forecast after one period")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteProm(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

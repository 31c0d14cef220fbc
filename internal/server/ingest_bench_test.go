package server

import (
	"context"
	"fmt"
	"testing"

	"dpm/internal/fleet"
	"dpm/internal/trace"
)

// BenchmarkIngestFlushFleet measures one ingestion flush as dpmd runs
// it: 256 registered, tracked Scenario I devices, one datagram with a
// counter and a gauge line per device injected, then FlushNow through
// the server's fleet bridge with the server's stage recorder attached.
// An op is a mid-period flush: the flush that closes a device's
// 12-slot period also re-forecasts (and may replan) every device, and
// runs with the timer stopped, so allocs/op price the window close and
// the fleet tick, which must not grow with the device count.
func BenchmarkIngestFlushFleet(b *testing.B) {
	const devices = 256
	srv, err := New(Config{IngestAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Fleet().Close()
	defer srv.Ingest().Close()
	ctx := context.Background()
	sc := trace.ScenarioI()
	pcfg, pol, err := scenarioParams(sc, nil, "")
	if err != nil {
		b.Fatal(err)
	}
	var datagram []byte
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("flush-%03d", i)
		if _, err := srv.Fleet().Register(ctx, fleet.RegisterSpec{DeviceID: id, Scenario: sc, Params: pcfg, Policy: pol}); err != nil {
			b.Fatal(err)
		}
		if err := srv.Ingest().Track(id, sc.Usage, sc.Charging); err != nil {
			b.Fatal(err)
		}
		datagram = append(datagram, id+".events:2|c\n"+id+".charge:2.4|g\n"...)
	}
	slots := sc.Usage.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wrap := i%slots == slots-1
		if wrap {
			b.StopTimer()
		}
		srv.Ingest().Inject(datagram)
		if _, err := srv.Ingest().FlushNow(ctx); err != nil {
			b.Fatal(err)
		}
		if wrap {
			b.StartTimer()
		}
	}
	b.StopTimer()
	if st := srv.Ingest().Stats(); st.TickErrors != 0 {
		b.Fatalf("%d tick errors", st.TickErrors)
	}
}

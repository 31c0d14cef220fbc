package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"dpm/internal/pipeline"
)

// BenchmarkFleetTick measures the steady-state session tick: one slot
// report under the partition lock and through Algorithm 3, no
// checkpoint on either side. This is the per-device per-τ cost the
// fleet layer buys versus the stateless /v1/replan round-trip.
func BenchmarkFleetTick(b *testing.B) {
	ctx := context.Background()
	m := newTestManager(b, Config{})
	spec := registerSpec(b, "bench-device")
	if _, err := m.Register(ctx, spec); err != nil {
		b.Fatal(err)
	}
	rep := []pipeline.SlotReport{{UsedJ: 9.5, SuppliedJ: 11.0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tick(ctx, TickSpec{DeviceID: spec.DeviceID, Reports: rep}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTickParallel measures aggregate throughput with many
// devices ticking concurrently across partitions.
func BenchmarkFleetTickParallel(b *testing.B) {
	ctx := context.Background()
	m := newTestManager(b, Config{})
	const devices = 64
	ids := make([]string, devices)
	for i := range ids {
		spec := registerSpec(b, fmt.Sprintf("bench-par-%02d", i))
		ids[i] = spec.DeviceID
		if _, err := m.Register(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
	rep := []pipeline.SlotReport{{UsedJ: 9.5, SuppliedJ: 11.0}}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := ids[int(next.Add(1))%devices]
		for pb.Next() {
			if _, err := m.Tick(ctx, TickSpec{DeviceID: id, Reports: rep}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkFleetTickBatch measures one TickBatch over 256 sessions,
// one slot report each and no results requested — the ingestion
// flush's path. Each partition's lock is taken once per batch and
// nothing is allocated per device; ns/device is the per-session share.
func BenchmarkFleetTickBatch(b *testing.B) {
	ctx := context.Background()
	m := newTestManager(b, Config{})
	const devices = 256
	specs := make([]TickSpec, devices)
	reports := make([]pipeline.SlotReport, devices)
	for i := range specs {
		spec := registerSpec(b, fmt.Sprintf("bench-batch-%03d", i))
		if _, err := m.Register(ctx, spec); err != nil {
			b.Fatal(err)
		}
		reports[i] = pipeline.SlotReport{UsedJ: 9.5, SuppliedJ: 11.0}
		specs[i] = TickSpec{DeviceID: spec.DeviceID, Reports: reports[i : i+1]}
	}
	errs := make([]error, devices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TickBatch(ctx, specs, nil, errs)
	}
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*devices), "ns/device")
}

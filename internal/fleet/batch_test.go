package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpm/internal/pipeline"
)

// batchTwins builds two managers with the same registered sessions —
// six live devices and one idle-evicted one — on a shared manual
// clock.
func batchTwins(t *testing.T, clock *atomic.Int64) (*Manager, *Manager) {
	t.Helper()
	ctx := context.Background()
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	var ms [2]*Manager
	for k := range ms {
		ms[k] = newTestManager(t, Config{Partitions: 4, IdleTTL: time.Minute, Now: now})
	}
	for _, m := range ms {
		if _, err := m.Register(ctx, registerSpec(t, "bt-evicted")); err != nil {
			t.Fatal(err)
		}
	}
	clock.Add(int64(2 * time.Minute))
	for _, m := range ms {
		for i := 0; i < 6; i++ {
			if _, err := m.Register(ctx, registerSpec(t, fmt.Sprintf("bt-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	clock.Add(int64(30 * time.Second))
	for _, m := range ms {
		if err := m.SweepNow(ctx); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.SessionsLive != 6 || st.SessionsParked != 1 {
			t.Fatalf("setup: %d live, %d parked", st.SessionsLive, st.SessionsParked)
		}
	}
	return ms[0], ms[1]
}

// randomTicks draws one batch: live, repeated, unknown, evicted and
// invalid devices; one to three reports, a few out of bounds; seqs
// from a small set so replays happen; includeState at random.
func randomTicks(rng *rand.Rand) []TickSpec {
	ids := []string{"bt-0", "bt-1", "bt-2", "bt-3", "bt-4", "bt-5", "bt-0", "bt-1",
		"bt-ghost", "bt-evicted", "", strings.Repeat("z", MaxDeviceID+1)}
	specs := make([]TickSpec, 1+rng.IntN(24))
	for i := range specs {
		reports := make([]pipeline.SlotReport, rng.IntN(4))
		for j := range reports {
			reports[j] = pipeline.SlotReport{UsedJ: rng.Float64() * 40, SuppliedJ: rng.Float64() * 40}
			if rng.IntN(40) == 0 {
				reports[j].UsedJ = -1
			}
		}
		var seq uint64
		if rng.IntN(2) == 0 {
			seq = uint64(rng.IntN(3))
		}
		specs[i] = TickSpec{
			DeviceID:     ids[rng.IntN(len(ids))],
			Seq:          seq,
			Reports:      reports,
			IncludeState: rng.IntN(3) == 0,
		}
	}
	return specs
}

// TestTickBatchMatchesSequentialTicks is the batch's semantic pin:
// over seeded random batches, TickBatch answers every item exactly as
// the same items sent one by one through Tick — results (plan, charge,
// slot, replans, replay flag, checkpoint) and errors — and leaves the
// same Stats counters and the same drained checkpoints, with and
// without results requested. A closed manager fails every item with
// ErrClosed, as Tick does.
func TestTickBatchMatchesSequentialTicks(t *testing.T) {
	ctx := context.Background()
	for _, withResults := range []bool{true, false} {
		t.Run(fmt.Sprintf("results=%t", withResults), func(t *testing.T) {
			var clock atomic.Int64
			clock.Store(time.Unix(1_700_000_000, 0).UnixNano())
			batch, seq := batchTwins(t, &clock)
			rng := rand.New(rand.NewPCG(23, 1))
			var sawReplay, sawEvicted bool
			for round := 0; round < 60; round++ {
				specs := randomTicks(rng)
				errs := make([]error, len(specs))
				var results []TickResult
				if withResults {
					results = make([]TickResult, len(specs))
				}
				batch.TickBatch(ctx, specs, results, errs)
				for i, spec := range specs {
					want, werr := seq.Tick(ctx, spec)
					if fmt.Sprint(errs[i]) != fmt.Sprint(werr) {
						t.Fatalf("round %d item %d (%q): batch error %v, sequential %v", round, i, spec.DeviceID, errs[i], werr)
					}
					sawEvicted = sawEvicted || errors.Is(werr, ErrEvicted)
					sawReplay = sawReplay || want.Replayed
					if withResults && !reflect.DeepEqual(results[i], want) {
						t.Fatalf("round %d item %d (%q): batch %+v\nsequential %+v", round, i, spec.DeviceID, results[i], want)
					}
				}
				clock.Add(int64(time.Second))
			}
			if !sawReplay || !sawEvicted {
				t.Fatalf("the draw never covered a replay (%t) or an evicted device (%t)", sawReplay, sawEvicted)
			}
			if b, s := batch.Stats(), seq.Stats(); b != s {
				t.Fatalf("counters differ:\nbatch      %+v\nsequential %+v", b, s)
			}
			bd, err := batch.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := seq.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bd, sd) {
				t.Fatal("drained checkpoints differ between batch and sequential ticks")
			}

			batch.Close()
			seq.Close()
			specs := randomTicks(rng)
			errs := make([]error, len(specs))
			batch.TickBatch(ctx, specs, nil, errs)
			for i, spec := range specs {
				if _, err := seq.Tick(ctx, spec); !errors.Is(err, ErrClosed) || !errors.Is(errs[i], ErrClosed) {
					t.Fatalf("closed manager, item %d: batch %v, sequential %v", i, errs[i], err)
				}
			}
		})
	}
}

// A batch that asks for no results allocates nothing per item: the
// flush path's ticks cost the partition locks and Algorithm 3 only.
func TestTickBatchNoResultsAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, Config{Partitions: 4})
	specs := make([]TickSpec, 64)
	reports := make([]pipeline.SlotReport, len(specs))
	for i := range specs {
		spec := registerSpec(t, fmt.Sprintf("alloc-%02d", i))
		if _, err := m.Register(ctx, spec); err != nil {
			t.Fatal(err)
		}
		reports[i] = pipeline.SlotReport{UsedJ: 9.5, SuppliedJ: 11}
		specs[i] = TickSpec{DeviceID: spec.DeviceID, Reports: reports[i : i+1]}
	}
	errs := make([]error, len(specs))
	allocs := testing.AllocsPerRun(50, func() {
		m.TickBatch(ctx, specs, nil, errs)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if allocs != 0 && !raceEnabled {
		t.Errorf("TickBatch of %d devices allocated %v times per call, want 0", len(specs), allocs)
	}
}

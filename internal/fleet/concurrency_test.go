package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpm/internal/chaostest"
	"dpm/internal/pipeline"
)

// TestLockOwnedPartitionsConcurrent drives every operation — Register,
// Tick, Drain, SweepNow, PartitionStats and Close — from many
// goroutines at once, with the idle sweeper evicting sessions
// underneath. Workers register fresh devices until they see Close
// has returned, then make one more round of calls. Each device
// registers exactly once, so the contract reads off directly: every
// registered session comes back exactly once across all Drain results
// and Close's return, its checkpoint slot equals the ticks that
// reported success, every call that starts after Close returns
// ErrClosed, and Close leaves no goroutine behind.
func TestLockOwnedPartitionsConcurrent(t *testing.T) {
	before := chaostest.SnapshotGoroutines()
	ctx := context.Background()
	m, err := New(Config{
		Partitions:     4,
		IdleTTL:        time.Millisecond,
		SweepInterval:  200 * time.Microsecond,
		ParkedCapacity: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := registerSpec(t, "")
	const (
		workers = 8
		ticks   = 4 // per device
	)
	rep := []pipeline.SlotReport{{UsedJ: 9, SuppliedJ: 10}}

	var (
		closeDone  atomic.Bool
		mu         sync.Mutex
		registered = map[string]bool{}
		applied    = map[string]int{}
		drained    = map[string]int{}
		slots      = map[string]int{}
	)
	record := func(out []Drained) {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range out {
			drained[d.DeviceID]++
			slots[d.DeviceID] = d.Slot
		}
	}
	// check fails err unless it is nil or one of the allowed errors,
	// and demands ErrClosed of any call that began after Close
	// returned.
	check := func(op string, late bool, err error, allowed ...error) {
		if late && !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", op, err)
			return
		}
		if err == nil || errors.Is(err, ErrClosed) {
			return
		}
		for _, a := range allowed {
			if errors.Is(err, a) {
				return
			}
		}
		t.Errorf("%s: %v", op, err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, last := 0, false; !last; i++ {
				last = closeDone.Load()
				id := fmt.Sprintf("conc-%d-%d", w, i)
				s := spec
				s.DeviceID = id
				late := closeDone.Load()
				_, err := m.Register(ctx, s)
				check("register", late, err)
				if err == nil {
					mu.Lock()
					registered[id] = true
					mu.Unlock()
				}
				for k := 0; k < ticks; k++ {
					late := closeDone.Load()
					_, err := m.Tick(ctx, TickSpec{DeviceID: id, Reports: rep})
					check("tick", late, err, ErrUnknownDevice, ErrEvicted)
					if err == nil {
						mu.Lock()
						applied[id]++
						mu.Unlock()
					}
				}
				// Drains are rare enough that idle sessions live long
				// enough to be evicted and drained from the parked table.
				switch {
				case w == 0 && i%8 == 7 || last:
					late := closeDone.Load()
					out, err := m.Drain(ctx)
					check("drain", late, err)
					record(out)
				case i%4 == 3:
					late := closeDone.Load()
					check("sweep", late, m.SweepNow(ctx))
				}
				m.PartitionStats()
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	left := m.Close()
	closeLeft := len(left)
	record(left)
	closeDone.Store(true)
	wg.Wait()

	if _, err := m.Register(ctx, spec); !errors.Is(err, ErrClosed) {
		t.Errorf("register after Close: %v", err)
	}
	if _, err := m.Tick(ctx, TickSpec{DeviceID: "conc-0-00", Reports: rep}); !errors.Is(err, ErrClosed) {
		t.Errorf("tick after Close: %v", err)
	}
	if _, err := m.Drain(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("drain after Close: %v", err)
	}
	if err := m.SweepNow(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("sweep after Close: %v", err)
	}
	if out := m.Close(); out != nil {
		t.Errorf("second Close returned %d checkpoints", len(out))
	}

	for id := range registered {
		if n := drained[id]; n != 1 {
			t.Errorf("%s drained %d times, want exactly once", id, n)
		} else if slots[id] != applied[id] {
			t.Errorf("%s: checkpoint slot %d != %d applied ticks", id, slots[id], applied[id])
		}
	}
	for id := range drained {
		if !registered[id] {
			t.Errorf("%s drained but never registered", id)
		}
	}
	st := m.Stats()
	t.Logf("registered %d, evicted %d, drained %d, closed with %d left", st.Registered, st.Evictions, st.DrainedSessions, closeLeft)
	if m.Live() != 0 {
		t.Errorf("live=%d after Close", m.Live())
	}
	for i, ps := range m.PartitionStats() {
		if ps.Sessions != 0 || ps.Parked != 0 || ps.Depth != 0 {
			t.Errorf("partition %d after Close: %+v", i, ps)
		}
	}
	chaostest.CheckGoroutines(t, before)
}

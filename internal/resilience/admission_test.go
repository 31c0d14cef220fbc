package resilience

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestAdmissionFastPathAdmits(t *testing.T) {
	c := NewController(2)
	slot, d, _ := c.Acquire(context.Background(), "/v1/plan")
	if d != Admitted {
		t.Fatalf("decision %v with free slots, want admitted", d)
	}
	slot.Release()
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Admitted != 1 || snap[0].Endpoint != "/v1/plan" {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap[0].ServiceTimeSeconds <= 0 {
		t.Fatal("release did not record a service-time observation")
	}
}

// TestAdmissionShedsDoomedRequest saturates a 1-slot pool with a
// known service-time estimate and checks a short-deadline request is
// rejected immediately rather than queued to die.
func TestAdmissionShedsDoomedRequest(t *testing.T) {
	c := NewController(1)
	// Seed the estimate: ~2 s per request on this endpoint.
	c.state("/v1/plan").observe(2.0)

	hold, _, _ := c.Acquire(context.Background(), "/v1/plan")
	defer hold.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, d, retryAfter := c.Acquire(ctx, "/v1/plan")
	if d != Shed {
		t.Fatalf("decision %v, want shed", d)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Millisecond {
		t.Fatalf("shed took %s; it must not wait in the queue", elapsed)
	}
	if retryAfter < time.Second {
		t.Fatalf("retry-after %s below the 1 s floor", retryAfter)
	}
	snap := c.Snapshot()
	if snap[0].Shed != 1 {
		t.Fatalf("shed count %d, want 1: %+v", snap[0].Shed, snap)
	}
}

// TestAdmissionAdmitsWhenDeadlineFits keeps the same saturated pool
// but gives the waiter enough budget: it must queue and be admitted
// once the slot frees.
func TestAdmissionAdmitsWhenDeadlineFits(t *testing.T) {
	c := NewController(1)
	c.state("/v1/plan").observe(0.01) // 10 ms estimate

	hold, _, _ := c.Acquire(context.Background(), "/v1/plan")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	admitted := make(chan Decision, 1)
	go func() {
		slot, d, _ := c.Acquire(ctx, "/v1/plan")
		if d == Admitted {
			slot.Release()
		}
		admitted <- d
	}()
	time.Sleep(20 * time.Millisecond) // let it enqueue
	hold.Release()
	select {
	case d := <-admitted:
		if d != Admitted {
			t.Fatalf("decision %v, want admitted", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued request never admitted after the slot freed")
	}
}

func TestAdmissionExpiresQueuedRequest(t *testing.T) {
	c := NewController(1)
	// No estimate yet: shedding cannot trigger, so the request queues
	// and dies at its deadline — the pre-estimate conservative path.
	hold, _, _ := c.Acquire(context.Background(), "/v1/plan")
	defer hold.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, d, retryAfter := c.Acquire(ctx, "/v1/plan")
	if d != Expired {
		t.Fatalf("decision %v, want expired", d)
	}
	if retryAfter < time.Second {
		t.Fatalf("retry-after %s below the 1 s floor", retryAfter)
	}
	if snap := c.Snapshot(); snap[0].Expired != 1 {
		t.Fatalf("expired count %d, want 1", snap[0].Expired)
	}
}

func TestAdmissionExpiredBeforeArrival(t *testing.T) {
	c := NewController(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, d, _ := c.Acquire(ctx, "/v1/plan")
	if d != Expired {
		t.Fatalf("decision %v for a dead context, want expired", d)
	}
}

// TestAdmissionConcurrent hammers a small pool from many goroutines
// under -race: every admitted slot must be released, counters must
// add up, and the queue depth must return to zero.
func TestAdmissionConcurrent(t *testing.T) {
	c := NewController(4)
	const workers = 32
	var wg sync.WaitGroup
	var admitted, other sync.Map
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			slot, d, _ := c.Acquire(ctx, "/v1/plan")
			if d == Admitted {
				time.Sleep(time.Millisecond)
				slot.Release()
				admitted.Store(i, true)
			} else {
				other.Store(i, d)
			}
		}(i)
	}
	wg.Wait()
	if c.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after drain, want 0", c.QueueDepth())
	}
	snap := c.Snapshot()
	total := snap[0].Admitted + snap[0].Shed + snap[0].Expired
	if total != workers {
		t.Fatalf("outcomes %d, want %d: %+v", total, workers, snap)
	}
}

func TestCeilSeconds(t *testing.T) {
	cases := []struct {
		in, want time.Duration
	}{
		{0, time.Second},
		{time.Millisecond, time.Second},
		{time.Second, time.Second},
		{time.Second + time.Millisecond, 2 * time.Second},
		{2500 * time.Millisecond, 3 * time.Second},
	}
	for _, tc := range cases {
		if got := ceilSeconds(tc.in); got != tc.want {
			t.Errorf("ceilSeconds(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

// TestAdmissionPrime: primed endpoints appear in the snapshot before
// any traffic reaches them (startup exposition on /metrics), priming
// an already-seen endpoint does not reset its estimate, and distinct
// endpoints keep distinct EWMA states.
func TestAdmissionPrime(t *testing.T) {
	c := NewController(2)
	c.Prime("/v1/fleet/register", "/v1/fleet/tick")
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d endpoints, want the 2 primed: %+v", len(snap), snap)
	}
	for _, ea := range snap {
		if ea.Admitted != 0 || ea.ServiceTimeSeconds != 0 {
			t.Fatalf("primed endpoint %q not zero-valued: %+v", ea.Endpoint, ea)
		}
	}

	// Each primed endpoint learns its own estimate, not a shared one.
	c.state("/v1/fleet/register").observe(2.0)
	c.state("/v1/fleet/tick").observe(0.25)
	var reg, tick float64
	for _, ea := range c.Snapshot() {
		switch ea.Endpoint {
		case "/v1/fleet/register":
			reg = ea.ServiceTimeSeconds
		case "/v1/fleet/tick":
			tick = ea.ServiceTimeSeconds
		}
	}
	if reg == 0 || tick == 0 || reg == tick {
		t.Fatalf("estimates not independent: register=%g tick=%g", reg, tick)
	}

	// Re-priming is a no-op on live state.
	c.Prime("/v1/fleet/register")
	for _, ea := range c.Snapshot() {
		if ea.Endpoint == "/v1/fleet/register" && ea.ServiceTimeSeconds != reg {
			t.Fatalf("re-prime reset the estimate: %g → %g", reg, ea.ServiceTimeSeconds)
		}
	}
}

package ingest

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpm/internal/chaostest"
	"dpm/internal/schedule"
)

// gateReplanner ticks and replans successfully; once armed, the next
// Tick signals entered and blocks until release is closed.
type gateReplanner struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (r *gateReplanner) Tick(context.Context, string, SlotObservation) error {
	if r.armed.CompareAndSwap(true, false) {
		close(r.entered)
		<-r.release
	}
	return nil
}

func (r *gateReplanner) Replan(context.Context, string, *schedule.Grid, *schedule.Grid) error {
	return nil
}

// TestDaemonConcurrentAccess pins the daemon's concurrency contract.
// Datagrams arrive through Inject and the UDP reader while other
// goroutines flush, track and untrack devices, and read statuses and
// metrics. Afterwards every parsed sample is accounted for: applied
// to a tracked device's window or counted under exactly one
// post-parse drop reason. Close waits out a flush whose fleet tick is
// still running, later calls return ErrClosed, and no goroutine
// outlives the daemon.
func TestDaemonConcurrentAccess(t *testing.T) {
	before := chaostest.SnapshotGoroutines()
	rp := &gateReplanner{entered: make(chan struct{}), release: make(chan struct{})}
	d, err := New(Config{Addr: "127.0.0.1:0", Replanner: rp, EventEnergyJ: 4.8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	plan := schedule.NewGrid(4.8, flat(3, 1))
	stable := []string{"s0", "s1", "s2", "s3"}
	for _, id := range stable {
		if err := d.Track(id, plan, plan); err != nil {
			t.Fatal(err)
		}
	}
	// Each datagram mixes stable devices, a churned device that may or
	// may not be tracked when the datagram lands, an unknown device
	// and a malformed line.
	datagram := func(i int) []byte {
		s, c := stable[i%len(stable)], fmt.Sprintf("c%d", i%3)
		return []byte(fmt.Sprintf("%s.events:2|c\n%s.charge:1.5|g\n%s.events:1|c\nghost.events:1|c\nbogus\n%s.charge:+0.5|g",
			s, c, c, s))
	}

	const (
		injectors = 4
		perWorker = 200
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d.Inject(datagram(w*perWorker + i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("udp", d.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		for i := 0; i < perWorker; i++ {
			if _, err := conn.Write(datagram(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWorker/4; i++ {
			if _, err := d.FlushNow(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("c%d", i%3)
			if i%2 == 0 {
				if err := d.Track(id, plan, plan); err != nil {
					t.Error(err)
					return
				}
			} else {
				d.Untrack(id)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWorker/4; i++ {
			d.DeviceStatuses()
			if err := d.WriteProm(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, err := d.FlushNow(ctx); err != nil {
		t.Fatal(err)
	}

	// The reader may still hold datagrams the sender wrote, so poll
	// until the counters settle; a lost sample never lets them.
	accounted := func(st Stats) bool {
		parseDrops := st.Lines - st.Parsed
		var dropped uint64
		for _, n := range st.Drops {
			dropped += n
		}
		return st.Parsed == st.SamplesApplied+dropped-parseDrops-st.Drops[DropCardinality]
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := d.Stats(); !accounted(st); st = d.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("parsed samples neither applied nor dropped: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := d.Stats()
	if st.Datagrams < injectors*perWorker || st.Drops[DropUntracked] == 0 || st.Drops[DropMalformed] == 0 {
		t.Fatalf("the load missed a path: %+v", st)
	}

	// A flush blocked inside its fleet tick holds Close back.
	rp.armed.Store(true)
	flushErr := make(chan error, 1)
	go func() {
		_, err := d.FlushNow(ctx)
		flushErr <- err
	}()
	select {
	case <-rp.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the flush never reached the fleet tick")
	}
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a flush was ticking the fleet")
	case <-time.After(50 * time.Millisecond):
	}
	close(rp.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the flush finished")
	}
	if err := <-flushErr; err != nil {
		t.Errorf("in-flight flush = %v, want nil", err)
	}
	if _, err := d.FlushNow(ctx); err != ErrClosed {
		t.Errorf("FlushNow after Close = %v, want ErrClosed", err)
	}
	if err := d.Track("late", plan, plan); err != ErrClosed {
		t.Errorf("Track after Close = %v, want ErrClosed", err)
	}
	chaostest.CheckGoroutines(t, before)
}

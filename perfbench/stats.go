package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the sample at or below
// it. xs is sorted in place. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// mean returns the arithmetic mean, or NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// opTiming is the open-loop accounting of one operation. due is when
// the schedule wanted it sent, free when its worker became available,
// began when it was actually sent and done when its reply arrived.
// The latency runs from the due time, so a stall also charges every
// operation queued behind it; the lag is how late the generator itself
// sent an operation it was free to send (sleep overshoot, client CPU
// starvation), which says nothing about the server.
func opTiming(due, free, began, done time.Time) (latency, lag time.Duration) {
	latency = done.Sub(due)
	ready := due
	if free.After(ready) {
		ready = free
	}
	lag = began.Sub(ready)
	if lag < 0 {
		lag = 0
	}
	return latency, lag
}

// subWindow is the slice length of the measured window. A shared
// virtual machine's CPU speed swings by tens of percent for seconds at
// a time,
// so each end-to-end figure is computed per slice and the median slice
// is reported: a slow spell that covers less than half the window
// cannot move it.
const subWindow = time.Second

// cpuSample is dpmd's cumulative CPU time at one instant.
type cpuSample struct {
	at  time.Time
	cpu float64 // seconds
}

// cpuSampler samples a process's CPU time at every slice boundary of
// the measured window.
type cpuSampler struct {
	pid     int
	once    sync.Once
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []cpuSample
	err     error
}

func newCPUSampler(pid int) *cpuSampler { return &cpuSampler{pid: pid, stop: make(chan struct{})} }

// begin starts sampling at the window's start (which may lie in the
// future); calls after the first are ignored.
func (s *cpuSampler) begin(at time.Time) {
	s.once.Do(func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sleepUntil(at)
			tick := time.NewTicker(subWindow)
			defer tick.Stop()
			for {
				s.sample()
				select {
				case <-s.stop:
					s.sample()
					return
				case <-tick.C:
				}
			}
		}()
	})
}

func (s *cpuSampler) sample() {
	cpu, err := procCPUSeconds(s.pid)
	if err != nil {
		s.err = err
		return
	}
	s.samples = append(s.samples, cpuSample{time.Now(), cpu})
}

// finish stops sampling (taking a last sample) and returns the samples.
func (s *cpuSampler) finish() ([]cpuSample, error) {
	s.once.Do(func() {}) // a window that never started has no samples
	close(s.stop)
	s.wg.Wait()
	return s.samples, s.err
}

// p99Group is the fewest operations a p99 is taken over. Consecutive
// slices are pooled until they hold this many; the p99 is the median
// over those groups, so one slow spell moves only its own group. A
// plan workload's one-second slice already holds a thousand or more
// operations; telemetry_loop's groups hold about 120 windows.
const p99Group = 100

// slices splits the timed operations at the sample instants and
// returns, per slice of at least half a subWindow, the throughput in
// ops/s and the p50 latency in ms, plus dpmd's CPU time and operation
// count per slice (slices without operations report throughput only).
// The p99 is taken per run of consecutive slices holding at least
// p99Group operations.
func slices(samples []cpuSample, lat []time.Duration, done []time.Time) (thr, p50, p99 []float64, cpu []sliceCPU) {
	if len(samples) < 2 {
		return nil, nil, nil, nil
	}
	buckets := make([][]float64, len(samples)-1)
	for i, t := range done {
		k := sort.Search(len(samples), func(j int) bool { return samples[j].at.After(t) }) - 1
		if k >= 0 && k < len(buckets) {
			buckets[k] = append(buckets[k], float64(lat[i])/float64(time.Millisecond))
		}
	}
	var group []float64
	for k, b := range buckets {
		span := samples[k+1].at.Sub(samples[k].at)
		if span < subWindow/2 {
			continue
		}
		thr = append(thr, float64(len(b))/span.Seconds())
		if len(b) == 0 {
			continue
		}
		cpu = append(cpu, sliceCPU{samples[k+1].cpu - samples[k].cpu, len(b)})
		group = append(group, b...)
		p50 = append(p50, percentile(b, 50))
		if len(group) >= p99Group {
			p99 = append(p99, percentile(group, 99))
			group = group[:0]
		}
	}
	if len(p99) == 0 && len(group) > 0 {
		p99 = append(p99, percentile(group, 99)) // a short window: one group of what there is
	}
	return thr, p50, p99, cpu
}

// sliceCPU is dpmd's CPU time over one slice and the operations that
// completed in it.
type sliceCPU struct {
	sec float64
	ops int
}

// cpuPerOpUS is the interquartile mean of the slices' CPU per
// operation in µs: the slices are ranked by CPU per operation and the
// middle half is pooled. Pooling keeps the 10 ms granularity of the
// kernel's CPU accounting from quantizing the result; trimming keeps
// slow spells out.
func cpuPerOpUS(s []sliceCPU) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]sliceCPU(nil), s...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].sec/float64(sorted[i].ops) < sorted[j].sec/float64(sorted[j].ops)
	})
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	sec, ops := 0.0, 0
	for _, c := range sorted[lo:hi] {
		sec += c.sec
		ops += c.ops
	}
	return sec * 1e6 / float64(ops)
}

// coarseSleep is how close to a deadline the runtime's timer is
// trusted: Go's Linux timers wake through the network poller at
// millisecond granularity, which would add up to a millisecond of
// generator lag to every open-loop operation.
const coarseSleep = 2 * time.Millisecond

// sleepUntil waits for t; it returns at once when t has passed. The
// last stretch sleeps in nanosleep(2) on the goroutine's thread, which
// wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > coarseSleep {
		time.Sleep(d - coarseSleep)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake (EINTR) only shortens the wait
	}
}

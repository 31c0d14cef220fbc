package resilience

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Deadline-aware admission control ---------------------------------
//
// The worker pool used to be a bare semaphore: a request either got a
// slot or waited until its deadline expired, burning a connection and
// a queue position on work that was already dead. The controller
// keeps the bounded pool but adds the schedulability test from
// deadline-driven scheduling: before queueing, predict how long the
// request will wait for a slot (queue position × rolling per-endpoint
// service time ÷ pool width) and shed it immediately — with a
// Retry-After the client's backoff honors — when the prediction
// already overruns the deadline. A request that queues anyway and
// dies waiting is counted separately (expired) so the two overload
// symptoms are distinguishable on /metrics.

// Decision is the admission verdict for one request.
type Decision int

const (
	// Admitted means the request holds a pool slot; the caller must
	// Release the returned Slot.
	Admitted Decision = iota
	// Shed means the predicted queue wait already overruns the
	// request deadline; nothing was queued.
	Shed
	// Expired means the deadline passed while the request waited for
	// a slot (or had passed before it arrived).
	Expired
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Admitted:
		return "admitted"
	case Shed:
		return "shed"
	default:
		return "expired"
	}
}

// estimateAlpha is the EWMA weight for new service-time observations.
const estimateAlpha = 0.2

// endpointState is one endpoint's rolling estimate and counters.
type endpointState struct {
	// estBits is math.Float64bits of the EWMA service time in seconds
	// (0 = no observation yet).
	estBits  atomic.Uint64
	admitted atomic.Uint64
	shed     atomic.Uint64
	expired  atomic.Uint64
}

// estimate returns the EWMA service time in seconds.
func (e *endpointState) estimate() float64 {
	return math.Float64frombits(e.estBits.Load())
}

// observe folds one completed request's service time into the EWMA.
func (e *endpointState) observe(seconds float64) {
	for {
		old := e.estBits.Load()
		prev := math.Float64frombits(old)
		next := seconds
		if prev > 0 {
			next = (1-estimateAlpha)*prev + estimateAlpha*seconds
		}
		if e.estBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Controller is a deadline-aware admission controller over a bounded
// worker pool.
type Controller struct {
	pool    int
	sem     chan struct{}
	waiting atomic.Int64

	mu  sync.RWMutex
	eps map[string]*endpointState
}

// NewController returns a controller over pool worker slots
// (pool < 1 is clamped to 1).
func NewController(pool int) *Controller {
	if pool < 1 {
		pool = 1
	}
	return &Controller{
		pool: pool,
		sem:  make(chan struct{}, pool),
		eps:  make(map[string]*endpointState),
	}
}

// state returns the endpoint's state, creating it on first sight.
// Endpoint cardinality is the route table's, so the map stays tiny
// and the read path is an RLock + map hit with no allocation.
func (c *Controller) state(endpoint string) *endpointState {
	c.mu.RLock()
	st := c.eps[endpoint]
	c.mu.RUnlock()
	if st != nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st = c.eps[endpoint]; st == nil {
		st = &endpointState{}
		c.eps[endpoint] = st
	}
	return st
}

// Prime eagerly creates per-endpoint state for the named endpoints so
// each learns its own EWMA service time from its first request — and
// appears on /metrics from startup — rather than depending on
// first-sight creation order. Registering a route table should prime
// every path it serves; state() still auto-creates anything missed,
// so Prime is about exposition and explicitness, not correctness.
func (c *Controller) Prime(endpoints ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ep := range endpoints {
		if c.eps[ep] == nil {
			c.eps[ep] = &endpointState{}
		}
	}
}

// Slot is one admitted request's pool slot. The zero Slot (from a
// non-admitted decision) is a no-op to Release.
type Slot struct {
	c     *Controller
	st    *endpointState
	start time.Time
}

// Release frees the pool slot and folds the observed service time
// into the endpoint's estimate.
func (s Slot) Release() {
	if s.c == nil {
		return
	}
	<-s.c.sem
	s.st.observe(time.Since(s.start).Seconds())
}

// Acquire admits, sheds or expires one request for the endpoint. The
// deadline is ctx's; a context without a deadline never sheds and
// waits indefinitely for a slot. On Shed and Expired the returned
// duration is the suggested Retry-After (≥ 1 s).
func (c *Controller) Acquire(ctx context.Context, endpoint string) (Slot, Decision, time.Duration) {
	st := c.state(endpoint)
	if ctx.Err() != nil {
		st.expired.Add(1)
		return Slot{}, Expired, c.retryAfterHint(st)
	}
	// Fast path: a free slot admits immediately, no prediction needed.
	select {
	case c.sem <- struct{}{}:
		st.admitted.Add(1)
		return Slot{c: c, st: st, start: time.Now()}, Admitted, 0
	default:
	}
	if deadline, ok := ctx.Deadline(); ok {
		if est := st.estimate(); est > 0 {
			// All slots are busy; this request waits behind the current
			// queue plus the in-flight generation. Expected wait until
			// its slot frees: (queue+1) service times spread over the
			// pool width.
			wait := time.Duration((float64(c.waiting.Load()) + 1) * est / float64(c.pool) * float64(time.Second))
			if time.Until(deadline) < wait {
				st.shed.Add(1)
				return Slot{}, Shed, ceilSeconds(wait)
			}
		}
	}
	c.waiting.Add(1)
	defer c.waiting.Add(-1)
	select {
	case c.sem <- struct{}{}:
		st.admitted.Add(1)
		return Slot{c: c, st: st, start: time.Now()}, Admitted, 0
	case <-ctx.Done():
		st.expired.Add(1)
		return Slot{}, Expired, c.retryAfterHint(st)
	}
}

// retryAfterHint suggests how long a rejected client should wait:
// one queue drain at the endpoint's estimated service time, floored
// at a second.
func (c *Controller) retryAfterHint(st *endpointState) time.Duration {
	est := st.estimate()
	if est <= 0 {
		return time.Second
	}
	wait := time.Duration((float64(c.waiting.Load()) + 1) * est / float64(c.pool) * float64(time.Second))
	return ceilSeconds(wait)
}

// RetryAfter suggests a Retry-After for an endpoint's failure path
// outside Acquire (e.g. a deadline that expired mid-computation).
func (c *Controller) RetryAfter(endpoint string) time.Duration {
	return c.retryAfterHint(c.state(endpoint))
}

// ceilSeconds rounds up to whole seconds with a 1 s floor — the
// granularity the Retry-After header speaks.
func ceilSeconds(d time.Duration) time.Duration {
	if d <= time.Second {
		return time.Second
	}
	secs := (d + time.Second - 1) / time.Second
	return secs * time.Second
}

// QueueDepth is the number of requests currently waiting for a slot.
func (c *Controller) QueueDepth() int64 { return c.waiting.Load() }

// EndpointAdmission is one endpoint's admission counters.
type EndpointAdmission struct {
	// Endpoint is the route path.
	Endpoint string
	// Admitted, Shed and Expired count Acquire outcomes.
	Admitted, Shed, Expired uint64
	// ServiceTimeSeconds is the rolling EWMA of observed service
	// times (0 until the first completion).
	ServiceTimeSeconds float64
}

// Snapshot returns per-endpoint admission counters, endpoints sorted
// for stable exposition.
func (c *Controller) Snapshot() []EndpointAdmission {
	c.mu.RLock()
	out := make([]EndpointAdmission, 0, len(c.eps))
	for ep, st := range c.eps {
		out = append(out, EndpointAdmission{
			Endpoint:           ep,
			Admitted:           st.admitted.Load(),
			Shed:               st.shed.Load(),
			Expired:            st.expired.Load(),
			ServiceTimeSeconds: st.estimate(),
		})
	}
	c.mu.RUnlock()
	sortEndpointAdmissions(out)
	return out
}

// sortEndpointAdmissions orders by endpoint name (insertion sort; the
// set is the route table's handful of paths).
func sortEndpointAdmissions(s []EndpointAdmission) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Endpoint < s[j-1].Endpoint; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

package plancache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func clonePlan(p []float64) []float64 { return append([]float64(nil), p...) }

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := New[int](n, nil); err == nil {
			t.Errorf("New(%d) accepted", n)
		}
	}
}

func TestGetPutBasics(t *testing.T) {
	c, err := New(4, clonePlan)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []float64{1, 2, 3})
	got, ok := c.Get("a")
	if !ok || !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	// Overwrite keeps one entry.
	c.Put("a", []float64{9})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", c.Len())
	}
	got, _ = c.Get("a")
	if !reflect.DeepEqual(got, []float64{9}) {
		t.Fatalf("overwritten value = %v", got)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Puts != 2 || s.Capacity != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if r := s.HitRate(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit rate = %g", r)
	}
}

// TestLRUEvictionOrder fills the cache past capacity and checks that
// the least recently *used* entry goes first — a Get refreshes
// recency, not just a Put.
func TestLRUEvictionOrder(t *testing.T) {
	c, err := New(3, clonePlan)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []float64{1})
	c.Put("b", []float64{2})
	c.Put("c", []float64{3})
	c.Get("a") // recency now a, c, b

	c.Put("d", []float64{4}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if got, want := c.Keys(), []string{"a", "d", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recency order = %v, want %v", got, want)
	}

	c.Put("e", []float64{5}) // evicts c
	c.Put("f", []float64{6}) // evicts d
	for _, key := range []string{"c", "d"} {
		if _, ok := c.Get(key); ok {
			t.Fatalf("%s survived eviction", key)
		}
	}
	s := c.Stats()
	if s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", s.Evictions)
	}
	if s.Len != 3 {
		t.Fatalf("len = %d, want 3", s.Len)
	}
}

// TestDeepCopySafety mutates both the slice passed to Put and the
// slice returned by Get; neither write may reach the cached copy.
func TestDeepCopySafety(t *testing.T) {
	c, err := New(2, clonePlan)
	if err != nil {
		t.Fatal(err)
	}
	original := []float64{1, 2, 3}
	c.Put("plan", original)
	original[0] = -999 // caller reuses its buffer

	got, _ := c.Get("plan")
	if got[0] != 1 {
		t.Fatalf("Put aliased the caller's slice: got[0] = %g", got[0])
	}
	got[1] = -999 // caller mutates the returned plan

	again, _ := c.Get("plan")
	if !reflect.DeepEqual(again, []float64{1, 2, 3}) {
		t.Fatalf("Get aliased the cached slice: %v", again)
	}
}

// TestConcurrentHammer drives the cache from many goroutines with a
// shared small key space so gets, puts, evictions and overwrites all
// interleave. Run under -race (the repo's race target does); the
// assertions check the counters stay coherent and every returned
// value is the one stored under its key.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 16
		ops     = 2000
		keys    = 32
		cap     = 8
	)
	c, err := New(cap, clonePlan)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				key := fmt.Sprintf("scenario-%d", k)
				if rng.Intn(2) == 0 {
					c.Put(key, []float64{float64(k), float64(k) * 2})
				} else if v, ok := c.Get(key); ok {
					if len(v) != 2 || v[0] != float64(k) || v[1] != float64(k)*2 {
						t.Errorf("key %s returned foreign value %v", key, v)
						return
					}
					v[0] = -1 // must not poison the cache
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	if n := c.Len(); n > cap {
		t.Fatalf("len %d exceeds capacity %d", n, cap)
	}
	s := c.Stats()
	if s.Hits+s.Misses == 0 || s.Puts == 0 {
		t.Fatalf("implausible stats %+v", s)
	}
	if int(s.Puts)-int(s.Evictions) < s.Len {
		t.Fatalf("counter mismatch: %+v", s)
	}
}

// TestKeyCanonical checks that the canonical hash ignores data that
// is semantically absent and distinguishes data that differs.
func TestKeyCanonical(t *testing.T) {
	type scenario struct {
		Tau    float64   `json:"tau"`
		Values []float64 `json:"values"`
	}
	a1, err := Key("plan", scenario{Tau: 4.8, Values: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Key("plan", scenario{Tau: 4.8, Values: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("identical inputs hashed differently")
	}
	b, err := Key("plan", scenario{Tau: 4.8, Values: []float64{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if a1 == b {
		t.Fatal("different inputs collided")
	}
	c, err := Key("params", scenario{Tau: 4.8, Values: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a1 == c {
		t.Fatal("endpoint tag ignored")
	}
	if _, err := Key(func() {}); err == nil {
		t.Fatal("unencodable key part accepted")
	}
}

// binaryPart is a key part with a canonical binary form.
type binaryPart []byte

func (p binaryPart) AppendKey(dst []byte) []byte { return append(dst, p...) }

// TestKeyParts checks the framing of the hashed stream: string parts
// are length-prefixed, a KeyAppender is hashed by its binary form,
// and parts of different kinds never share bytes.
func TestKeyParts(t *testing.T) {
	key := func(parts ...any) string {
		t.Helper()
		k, err := Key(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(k) != 64 {
			t.Fatalf("key %q is not a hex SHA-256", k)
		}
		return k
	}
	if key("ab", "c") == key("a", "bc") {
		t.Error("string parts run together")
	}
	if key("plan", binaryPart{1, 2}) != key("plan", binaryPart{1, 2}) {
		t.Error("equal binary parts hashed differently")
	}
	if key("plan", binaryPart{1, 2}) == key("plan", binaryPart{1, 3}) {
		t.Error("different binary parts collided")
	}
	if key("plan", binaryPart{1, 2}) == key("planb", binaryPart{1, 2}) {
		t.Error("prefix ignored")
	}
	if key(binaryPart("x")) == key("x") {
		t.Error("a binary part and a string part with the same bytes collided")
	}
	// A []byte without AppendKey is hashed by its JSON encoding.
	if key(binaryPart("x")) == key([]byte("x")) {
		t.Error("a binary part and a JSON part collided")
	}
}

// TestGetOrComputeSingleflight hammers one key from many goroutines
// and checks the value is computed exactly once, everyone gets the
// right answer, and only the computing caller reports a miss.
func TestGetOrComputeSingleflight(t *testing.T) {
	c, err := New[[]float64](4, clonePlan)
	if err != nil {
		t.Fatal(err)
	}
	var computes int32
	started := make(chan struct{})
	release := make(chan struct{})

	const callers = 16
	var mu sync.Mutex
	misses := 0
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, served, err := c.GetOrCompute(context.Background(), "k", func() ([]float64, error) {
				close(started)
				<-release
				atomic.AddInt32(&computes, 1)
				return []float64{1, 2, 3}, nil
			})
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
				return
			}
			if !reflect.DeepEqual(v, []float64{1, 2, 3}) {
				t.Errorf("got %v", v)
			}
			// Mutating the returned value must not poison the cache.
			v[0] = -99
			if !served {
				mu.Lock()
				misses++
				mu.Unlock()
			}
		}()
	}
	// Let one caller enter compute, give the rest a moment to pile
	// up as coalesced waiters, then release.
	<-started
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if misses != 1 {
		t.Fatalf("%d callers computed, want exactly 1", misses)
	}
	if v, ok := c.Get("k"); !ok || !reflect.DeepEqual(v, []float64{1, 2, 3}) {
		t.Fatalf("cache holds %v after caller mutation", v)
	}
}

// TestGetOrComputeErrorNotCached propagates a compute failure to all
// coalesced waiters without inserting anything.
func TestGetOrComputeErrorNotCached(t *testing.T) {
	c, err := New[[]float64](4, clonePlan)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	if _, _, err := c.GetOrCompute(context.Background(), "k", func() ([]float64, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("got %v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed compute was cached")
	}
	// A later call retries the computation.
	v, served, err := c.GetOrCompute(context.Background(), "k", func() ([]float64, error) {
		return []float64{7}, nil
	})
	if err != nil || served || !reflect.DeepEqual(v, []float64{7}) {
		t.Fatalf("retry got (%v, served=%v, %v)", v, served, err)
	}
}

// TestGetOrComputeWaiterCancellation releases a coalesced waiter when
// its context is cancelled while the computing caller is stuck.
func TestGetOrComputeWaiterCancellation(t *testing.T) {
	c, err := New[[]float64](4, clonePlan)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.GetOrCompute(context.Background(), "k", func() ([]float64, error) { //nolint:errcheck
			close(started)
			<-release
			return []float64{1}, nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, "k", func() ([]float64, error) {
			t.Error("waiter must not compute")
			return nil, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.DeadlineExceeded {
			t.Fatalf("waiter returned %v, want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
}

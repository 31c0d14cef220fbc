// Package plancache is a concurrency-safe LRU cache for computed
// power plans. Many nodes of a fleet share hardware configurations
// and charging forecasts, so the planning service (internal/server)
// keys each scenario by a canonical hash of everything Algorithm 1/2
// consumes — battery band, parameter table, schedules, τ — and serves
// repeated requests from the cache instead of re-running the
// allocation pipeline. Key hashes a part's canonical binary form when
// the part has one (KeyAppender: the plan request's binary codec
// body) and its JSON encoding otherwise.
//
// The cache is generic over the stored value. A clone function,
// supplied at construction, is applied on every Put and Get so a
// caller mutating a returned plan can never poison the cached copy;
// pass nil only for values that are immutable by construction
// (e.g. never-mutated byte slices are NOT immutable — clone them).
package plancache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count lookup outcomes (Get and GetOrCompute).
	// A GetOrCompute call coalesced onto another caller's in-flight
	// computation counts as a hit: it was served without computing.
	Hits, Misses uint64
	// Evictions counts entries displaced by capacity pressure.
	Evictions uint64
	// Puts counts insertions (including overwrites).
	Puts uint64
	// Len and Capacity are the current and maximum entry counts.
	Len, Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a fixed-capacity LRU map from canonical scenario keys to
// computed plans. All methods are safe for concurrent use.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	clone    func(V) V
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	flights  map[string]*flight[V]

	// The counters are atomics, not mutex-guarded fields: the
	// coalesced-waiter path of GetOrCompute and cross-shard stats
	// aggregation (Sharded.Stats) read and bump them without taking
	// the LRU lock, keeping accounting off the hot path and race-free.
	hits, misses, evictions, puts atomic.Uint64
}

type entry[V any] struct {
	key   string
	value V
}

// flight is one in-progress GetOrCompute computation; concurrent
// callers for the same key wait on done instead of recomputing.
type flight[V any] struct {
	done  chan struct{}
	value V
	err   error
}

// New returns a cache holding at most capacity entries. clone is
// applied to values on the way in and on the way out; nil means the
// values are shared as-is (only safe for immutable values).
func New[V any](capacity int, clone func(V) V) (*Cache[V], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("plancache: capacity %d must be at least 1", capacity)
	}
	return &Cache[V]{
		capacity: capacity,
		clone:    clone,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
		flights:  make(map[string]*flight[V]),
	}, nil
}

// Get returns a private copy of the value stored under key and marks
// the entry most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	v := el.Value.(*entry[V]).value
	// Clone outside the lock: the value reference read under the lock
	// stays valid even if a concurrent Put overwrites the entry (the
	// overwrite installs a new value; this one is the pre-overwrite
	// snapshot), and copying a multi-KiB plan body must not serialize
	// other readers.
	c.mu.Unlock()
	c.hits.Add(1)
	if c.clone != nil {
		v = c.clone(v)
	}
	return v, true
}

// Put stores a private copy of value under key, overwriting any
// existing entry, and evicts the least recently used entry if the
// cache is over capacity.
func (c *Cache[V]) Put(key string, value V) {
	if c.clone != nil {
		value = c.clone(value)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, value)
}

// putLocked inserts an already-cloned value; c.mu must be held.
func (c *Cache[V]) putLocked(key string, value V) {
	c.puts.Add(1)
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).value = value
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, value: value})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions.Add(1)
	}
}

// GetOrCompute returns the value under key, computing and caching it
// on a miss. Concurrent callers for the same key are coalesced: one
// runs compute, the rest wait for its result (or until their ctx is
// cancelled, in which case they return ctx.Err() without a value).
// The returned bool reports whether the caller was served without
// computing — from the cache or from another caller's in-flight
// computation. A failed compute is not cached; its error propagates
// to every coalesced waiter.
func (c *Cache[V]) GetOrCompute(ctx context.Context, key string, compute func() (V, error)) (V, bool, error) {
	var zero V
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		v := el.Value.(*entry[V]).value
		c.mu.Unlock()
		c.hits.Add(1)
		if c.clone != nil {
			v = c.clone(v)
		}
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
		if f.err != nil {
			return zero, true, f.err
		}
		c.hits.Add(1)
		v := f.value
		if c.clone != nil {
			v = c.clone(v)
		}
		return v, true, nil
	}
	c.misses.Add(1)
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	v, err := compute()
	stored := v
	if err == nil && c.clone != nil {
		stored = c.clone(v)
	}
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.putLocked(key, stored)
	}
	c.mu.Unlock()
	f.value, f.err = stored, err
	close(f.done)
	if err != nil {
		return zero, false, err
	}
	return v, false, nil
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Keys returns the keys from most to least recently used — the
// eviction order reversed. Intended for tests and diagnostics.
func (c *Cache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	n := c.order.Len()
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Puts:      c.puts.Load(),
		Len:       n,
		Capacity:  c.capacity,
	}
}

// KeyAppender is a key part with a canonical binary form. AppendKey
// appends bytes that two parts share only when they hold the same
// planning inputs, and that delimit themselves: a reader of the bytes
// could tell where they end.
type KeyAppender interface {
	AppendKey(dst []byte) []byte
}

// Part tags open each part's bytes in the hashed stream, so parts of
// different kinds never run into one another.
const (
	tagString byte = 1 + iota
	tagBinary
	tagJSON
)

// keyBufPool holds the scratch each Key call hashes.
var keyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// maxPooledKeyBuf bounds the scratch a pool entry keeps, so one huge
// scenario does not pin its buffer for the life of the process.
const maxPooledKeyBuf = 64 << 10

// Key derives the canonical cache key for parts, in order: the hex
// SHA-256 of their canonical bytes. A string part contributes its
// length and bytes. A KeyAppender contributes its binary form. Any
// other part contributes its JSON encoding: encoding/json emits struct
// fields in declaration order and map keys sorted, so two values that
// hold the same inputs hash identically. Each part is tagged with its
// kind. The digest keeps all 256 bits: two scenarios sharing a key
// would be served each other's plans.
func Key(parts ...any) (string, error) {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, p := range parts {
		switch p := p.(type) {
		case string:
			buf = append(buf, tagString)
			buf = binary.AppendUvarint(buf, uint64(len(p)))
			buf = append(buf, p...)
		case KeyAppender:
			buf = append(buf, tagBinary)
			buf = p.AppendKey(buf)
		default:
			b, err := json.Marshal(p)
			if err != nil {
				keyBufPool.Put(bp)
				return "", fmt.Errorf("plancache: hashing key part: %w", err)
			}
			buf = append(append(buf, tagJSON), b...)
		}
	}
	sum := sha256.Sum256(buf)
	if cap(buf) <= maxPooledKeyBuf {
		*bp = buf
		keyBufPool.Put(bp)
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), nil
}

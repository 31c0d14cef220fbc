package plancache

import (
	"context"
	"fmt"

	"dpm/internal/route"
)

// Sharded is a plan cache split across N independent power-of-two
// shards. Each key is routed to one shard by hash, so concurrent
// readers of different keys contend on different locks — the
// single-mutex Cache serializes every reader, which caps throughput
// once many nodes hit a warm cache at once. Each shard is a full
// Cache: per-shard LRU order, per-shard singleflight coalescing, and
// the same clone-isolation contract, so the observable behavior for
// any one key is identical to the unsharded cache (an entry's LRU
// ranking only competes with other keys on its own shard).
//
// All methods are safe for concurrent use.
type Sharded[V any] struct {
	shards []*Cache[V]
	mask   uint64
}

// MaxShards caps the shard count: past the point where shards exceed
// runnable goroutines, more shards only fragment the LRU.
const MaxShards = 256

// DefaultShards returns the shard count used when the caller passes
// 0: GOMAXPROCS rounded up to a power of two, capped at 16. One
// shard per runnable goroutine removes contention; beyond 16 the
// added LRU fragmentation outweighs the (already negligible) residual
// contention.
func DefaultShards() int { return route.DefaultCount(16) }

// NewSharded returns a sharded cache holding at least capacity
// entries in total. shards is rounded up to a power of two; 0 means
// DefaultShards(). The capacity is divided evenly across shards
// (rounded up, minimum 1 per shard), so the total capacity may
// slightly exceed the request when it does not divide evenly. clone
// has the same contract as New.
func NewSharded[V any](capacity, shards int, clone func(V) V) (*Sharded[V], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("plancache: capacity %d must be at least 1", capacity)
	}
	if shards < 0 || shards > MaxShards {
		return nil, fmt.Errorf("plancache: shard count %d outside [0, %d]", shards, MaxShards)
	}
	if shards == 0 {
		shards = DefaultShards()
	}
	shards = route.Pow2(shards)
	perShard := (capacity + shards - 1) / shards
	s := &Sharded[V]{
		shards: make([]*Cache[V], shards),
		mask:   uint64(shards - 1),
	}
	for i := range s.shards {
		c, err := New(perShard, clone)
		if err != nil {
			return nil, err
		}
		s.shards[i] = c
	}
	return s, nil
}

// shardFor routes a key to its shard by FNV-1a hash. Keys are
// already uniform hex SHA-256 digests in practice, but hashing keeps
// routing balanced for arbitrary key strings too.
func (s *Sharded[V]) shardFor(key string) *Cache[V] {
	return s.shards[route.Hash(key)&s.mask]
}

// ShardCount returns the number of shards.
func (s *Sharded[V]) ShardCount() int { return len(s.shards) }

// Get returns a private copy of the value stored under key.
func (s *Sharded[V]) Get(key string) (V, bool) {
	return s.shardFor(key).Get(key)
}

// Put stores a private copy of value under key.
func (s *Sharded[V]) Put(key string, value V) {
	s.shardFor(key).Put(key, value)
}

// GetOrCompute returns the value under key, computing and caching it
// on a miss; concurrent callers for the same key are coalesced onto
// one computation. See Cache.GetOrCompute for the full contract.
func (s *Sharded[V]) GetOrCompute(ctx context.Context, key string, compute func() (V, error)) (V, bool, error) {
	return s.shardFor(key).GetOrCompute(ctx, key, compute)
}

// Len returns the total entry count across shards.
func (s *Sharded[V]) Len() int {
	n := 0
	for _, c := range s.shards {
		n += c.Len()
	}
	return n
}

// Keys returns every shard's keys (each shard most to least recently
// used, shards in order). Intended for tests and diagnostics; there
// is no global recency order across shards.
func (s *Sharded[V]) Keys() []string {
	var keys []string
	for _, c := range s.shards {
		keys = append(keys, c.Keys()...)
	}
	return keys
}

// ShardStats snapshots each shard's counters individually, in shard
// order. The service's /metrics renders these as per-shard counter
// series so hot-shard imbalance (a skewed key distribution) is
// visible without a debugger; Stats remains the aggregate view.
func (s *Sharded[V]) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, c := range s.shards {
		out[i] = c.Stats()
	}
	return out
}

// Stats aggregates the per-shard counters into one snapshot. The
// counters are atomics, so the aggregate is race-free (each counter
// is individually consistent; the snapshot is not a single atomic
// cut across shards, which matches the unsharded cache's contract
// under concurrent mutation).
func (s *Sharded[V]) Stats() Stats {
	var out Stats
	for _, c := range s.shards {
		st := c.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Puts += st.Puts
		out.Len += st.Len
		out.Capacity += st.Capacity
	}
	return out
}

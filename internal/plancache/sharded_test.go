package plancache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func cloneBytes(b []byte) []byte { return append([]byte(nil), b...) }

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded[int](0, 4, nil); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewSharded[int](4, -1, nil); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewSharded[int](4, MaxShards+1, nil); err == nil {
		t.Error("shard count above MaxShards accepted")
	}

	s, err := NewSharded[int](16, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.ShardCount() != 4 {
		t.Fatalf("shards = %d, want 3 rounded up to 4", s.ShardCount())
	}
	if got := s.Stats().Capacity; got < 16 {
		t.Fatalf("total capacity %d below the requested 16", got)
	}

	d, err := NewSharded[int](16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ShardCount() != DefaultShards() {
		t.Fatalf("default shards = %d, want %d", d.ShardCount(), DefaultShards())
	}
}

// TestShardForStable checks routing is deterministic and that a
// realistic key population actually spreads across shards.
func TestShardForStable(t *testing.T) {
	s, err := NewSharded[int](64, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*Cache[int]]int)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("scenario-%d", i)
		first := s.shardFor(key)
		if s.shardFor(key) != first {
			t.Fatalf("key %q routed to two shards", key)
		}
		seen[first]++
	}
	if len(seen) != s.ShardCount() {
		t.Fatalf("256 keys landed on %d of %d shards", len(seen), s.ShardCount())
	}
}

// shardedValueFor is the canonical body stored under a key in the
// contention tests; any Get must return exactly these bytes.
func shardedValueFor(k int) []byte {
	return []byte(fmt.Sprintf("{\"plan\":%d,\"tau\":%d}", k, k*3))
}

// TestShardedMatchesSingleShard drives an identical concurrent mixed
// hit/miss workload against a sharded cache and a single-shard
// (single-lock) cache and checks the responses are byte-identical
// cache-layout-independently: every value either configuration ever
// returns for a key is exactly the canonical body for that key.
// Run under -race (the repo's race target includes this package).
func TestShardedMatchesSingleShard(t *testing.T) {
	const (
		workers = 8
		ops     = 1500
		keys    = 48
		cap     = 16
	)
	sharded, err := NewSharded(cap, 8, cloneBytes)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewSharded(cap, 1, cloneBytes)
	if err != nil {
		t.Fatal(err)
	}
	if single.ShardCount() != 1 {
		t.Fatalf("single-shard cache has %d shards", single.ShardCount())
	}

	for name, cache := range map[string]*Sharded[[]byte]{"sharded": sharded, "single": single} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				ctx := context.Background()
				for i := 0; i < ops; i++ {
					k := rng.Intn(keys)
					key := fmt.Sprintf("scenario-%d", k)
					switch rng.Intn(3) {
					case 0:
						cache.Put(key, shardedValueFor(k))
					case 1:
						if v, ok := cache.Get(key); ok {
							if !bytes.Equal(v, shardedValueFor(k)) {
								t.Errorf("%s: Get(%s) = %s", name, key, v)
								return
							}
							v[0] = '!' // must not poison the cache
						}
					default:
						v, _, err := cache.GetOrCompute(ctx, key, func() ([]byte, error) {
							return shardedValueFor(k), nil
						})
						if err != nil {
							t.Errorf("%s: GetOrCompute(%s): %v", name, key, err)
							return
						}
						if !bytes.Equal(v, shardedValueFor(k)) {
							t.Errorf("%s: GetOrCompute(%s) = %s", name, key, v)
							return
						}
					}
				}
			}(int64(w + 1))
		}
		wg.Wait()

		// Whatever survived eviction must hold canonical bytes.
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("scenario-%d", k)
			if v, ok := cache.Get(key); ok && !bytes.Equal(v, shardedValueFor(k)) {
				t.Fatalf("%s: surviving entry %s corrupted: %s", name, key, v)
			}
		}
		s := cache.Stats()
		if s.Hits+s.Misses == 0 || s.Puts == 0 {
			t.Fatalf("%s: implausible stats %+v", name, s)
		}
		if int(s.Puts)-int(s.Evictions) < s.Len {
			t.Fatalf("%s: counter mismatch %+v", name, s)
		}
		if n := cache.Len(); n > s.Capacity {
			t.Fatalf("%s: len %d exceeds capacity %d", name, n, s.Capacity)
		}
	}
}

// TestShardedSingleflight piles N concurrent misses for one key onto
// a sharded cache and checks they coalesce onto exactly one compute.
func TestShardedSingleflight(t *testing.T) {
	c, err := NewSharded(16, 4, cloneBytes)
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})

	const callers = 12
	var misses atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, served, err := c.GetOrCompute(context.Background(), "hot-key", func() ([]byte, error) {
				close(started)
				<-release
				computes.Add(1)
				return []byte("body"), nil
			})
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
				return
			}
			if !bytes.Equal(v, []byte("body")) {
				t.Errorf("got %q", v)
			}
			if !served {
				misses.Add(1)
			}
		}()
	}
	<-started
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if n := misses.Load(); n != 1 {
		t.Fatalf("%d callers reported a miss, want exactly 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Puts != 1 || s.Hits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss / 1 put / %d hits", s, callers-1)
	}
}

// TestShardedKeysAndLen covers the aggregate views across shards.
func TestShardedKeysAndLen(t *testing.T) {
	c, err := NewSharded(32, 4, cloneBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Put(key, []byte{byte(i)})
		want[key] = true
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	got := c.Keys()
	if len(got) != 10 {
		t.Fatalf("Keys = %v", got)
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("unexpected key %q", k)
		}
	}
}

// Package route is the one routing decision dpmd's sharded tables
// share: the plan and table caches (internal/plancache) and the
// fleet's session partitions (internal/fleet). A key goes to shard
// Hash(key) & (n-1), where n is a power of two — Pow2 of the
// configured count, or DefaultCount when none is configured.
package route

import "runtime"

// Hash returns the 64-bit FNV-1a hash of s, the value hash/fnv's
// New64a computes, without the allocation of a hash.Hash.
func Hash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Pow2 rounds n up to the next power of two (minimum 1).
func Pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// DefaultCount is the shard count for callers that configure none:
// one shard per runnable goroutine (GOMAXPROCS rounded up to a power
// of two), capped at max. Routing is then stable only within one
// process lifetime.
func DefaultCount(max int) int {
	if n := Pow2(runtime.GOMAXPROCS(0)); n < max {
		return n
	}
	return max
}

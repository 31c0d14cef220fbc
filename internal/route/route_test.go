package route

import (
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
)

func TestHashMatchesFNV1a(t *testing.T) {
	for _, s := range []string{
		"",
		"a",
		"sat-007",
		"plan\x00key",
		"spacecraft-ü-☀",
		strings.Repeat("x", 256),
		strings.Repeat("é", 128),
	} {
		h := fnv.New64a()
		h.Write([]byte(s)) //nolint:errcheck // hash.Hash never fails
		if got, want := Hash(s), h.Sum64(); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestPow2(t *testing.T) {
	for n, want := range map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 16: 16, 17: 32} {
		if got := Pow2(n); got != want {
			t.Errorf("Pow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDefaultCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 8, 40} {
		runtime.GOMAXPROCS(procs)
		for _, max := range []int{1, 2, 16, 256} {
			n := DefaultCount(max)
			if n < 1 || n > max || n&(n-1) != 0 {
				t.Errorf("GOMAXPROCS=%d: DefaultCount(%d) = %d, want a power of two in [1, %d]", procs, max, n, max)
			}
			if want := Pow2(procs); want <= max && n != want {
				t.Errorf("GOMAXPROCS=%d: DefaultCount(%d) = %d, want %d", procs, max, n, want)
			}
		}
	}
}

//go:build race

package fleet

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random, so allocation counts are not exact.
const raceEnabled = true

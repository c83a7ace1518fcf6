//go:build race

package concurrent

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts through a pool are not exact.
const raceEnabled = true

//go:build !race

package bench

// raceEnabled mirrors the race detector state: the long digest runs are
// skipped under -race, where instrumentation makes them take minutes.
const raceEnabled = false

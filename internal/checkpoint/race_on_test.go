//go:build race

package checkpoint

// raceEnabled mirrors the race detector state: the allocation gates are
// skipped under -race, whose runtime changes allocation counts.
const raceEnabled = true

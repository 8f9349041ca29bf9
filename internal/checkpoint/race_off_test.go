//go:build !race

package checkpoint

// raceEnabled mirrors the race detector state (see race_on_test.go).
const raceEnabled = false

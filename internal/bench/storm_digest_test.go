package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"heterohpc/internal/obs"
)

// faultsStormJournalSHA is the SHA-256 of the restart journal followed by the
// migrate journal of the benchmark's faults-storm workload at its default
// seed: one value for every commit since the storm's journal last moved.
const faultsStormJournalSHA = "aa8fbc4878100a8424ce1551f50a1f79a0c5f84c11873dbf7bc991a403ec1451"

// TestFaultsStormJournalDigest pins the journals of the 64-rank, 3-node
// reclamation wave that `go run ./benchmarks --workload faults-storm` drives,
// with its exact options, so a change to the migrate path that moves one
// event fails here rather than in a by-hand comparison.
func TestFaultsStormJournalDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("about 2 minutes under -race on a 2-core host; TestStorm64IsScheduleIndependent soaks the same storm shape there")
	}
	sha := sha256.New()
	for _, policy := range []string{PolicyRestart, PolicyMigrate} {
		run := obs.NewRun()
		if _, err := RunSupervised(FaultOptions{
			App: "rd", Platform: "ec2", Policy: policy, Seed: 2012, Obs: run,
			Ranks: 64, RanksPerNode: 8, PerRankN: 8, Steps: 8, StormWave: 3, SkipSteps: 0,
		}); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		var j bytes.Buffer
		if err := run.WriteJournal(&j); err != nil {
			t.Fatalf("%s: journal: %v", policy, err)
		}
		sha.Write(j.Bytes())
	}
	if got := hex.EncodeToString(sha.Sum(nil)); got != faultsStormJournalSHA {
		t.Fatalf("faults-storm journal SHA-256 %s, want %s", got, faultsStormJournalSHA)
	}
}

package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/fault"
	"heterohpc/internal/obs"
)

// stormOpts is the acceptance storm: a three-notice reclamation wave with
// one cascade mid-recovery, on a market whose on-demand pool is gone
// (-odsupply none), so the autoscaler has to back off and retry AcquireMix.
// Seed 12 is pinned because its market stream exhausts the first two
// acquisition attempts — the deterministic run needs ≥ 2 backoff retries
// before the replacements arrive.
func stormOpts() FaultOptions {
	return FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 3, Seed: 12, Policy: PolicyMigrate,
		StormWave: 3, StormCascades: 1, OnDemandSupply: -1,
	}
}

// TestStormArbiterRecoversFullWidthBitIdentical is the tentpole acceptance
// test: a correlated storm — three overlapping preemption notices, one
// cascade reclaiming a replacement mid-provisioning, and a spot market dry
// enough to force two backoff retries — must coalesce into one recovery
// point (no double-restore), come back at full width, and continue to the
// exact solution bytes of a fault-free run.
func TestStormArbiterRecoversFullWidthBitIdentical(t *testing.T) {
	o := stormOpts()
	o.Obs = obs.NewRun()
	s, err := newSuperSetup(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rep, st, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalRanks != o.Ranks || rep.Degraded {
		t.Fatalf("storm run finished on %d ranks (degraded %v), want the full %d",
			rep.FinalRanks, rep.Degraded, o.Ranks)
	}
	mg := rep.Migrate
	if mg == nil {
		t.Fatal("migrate policy produced no migrate stats")
	}
	if mg.Coalesced != 2 {
		t.Fatalf("arbiter coalesced %d notices, want 2 (a 3-notice wave folds into one recovery point)", mg.Coalesced)
	}
	if mg.Replans != 1 {
		t.Fatalf("arbiter re-planned %d cascades, want 1", mg.Replans)
	}
	if mg.ProvisionRetries < 2 {
		t.Fatalf("autoscaler retried %d time(s), want >= 2 exhausted-market backoffs", mg.ProvisionRetries)
	}
	if rep.BackoffS <= 0 {
		t.Fatalf("backoff share %.3fs, want > 0 when the market exhausts", rep.BackoffS)
	}
	if mg.Migrations != 1 || mg.FallbackShrinks != 0 || mg.FallbackRestarts != 0 {
		t.Fatalf("stats %+v, want exactly one group migration and no fallbacks", mg)
	}
	if rep.Shrink == nil || rep.Shrink.Shrinks != 1 {
		t.Fatalf("storm recovery must shrink-and-restore exactly once (no double-restore), got %+v", rep.Shrink)
	}

	// Fault-free comparator at the same width, from scratch.
	comp, mem, err := weakGeneration(o.App, o.Ranks, o.PerRankN, o.Steps, newSnapshotStore(o.Ranks, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	tg, err := core.NewTarget(o.Platform, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cleanObs := obs.NewRun()
	result, af, err := tg.Attempt(core.JobSpec{
		Ranks: o.Ranks, RanksPerNode: o.RanksPerNode, App: comp, MemPerRankGB: mem, Obs: cleanObs,
	})
	if err != nil || af != nil || result == nil {
		t.Fatalf("fault-free comparator failed: %v / %v / %v", err, af, result)
	}

	sameFinalState(t, st, comp)

	// Post-restore journal tail: the solver's path after the restore step
	// must reappear verbatim (minus virtual timestamps).
	migEvs, cleanEvs := rankEvents(t, o.Obs), rankEvents(t, cleanObs)
	for rank := 0; rank < o.Ranks; rank++ {
		key := strconv.Itoa(rank)
		want := solveTailAfterStep(t, cleanEvs[key], mg.RestoreStep)
		if len(want) == 0 {
			t.Fatalf("rank %d: fault-free run has no solves after step %d", rank, mg.RestoreStep)
		}
		var got []string
		for _, ev := range migEvs[key] {
			if strings.Contains(ev, `"kind":"solve"`) {
				got = append(got, ev)
			}
		}
		if len(got) < len(want) {
			t.Fatalf("rank %d: storm run has %d solves, tail needs %d", rank, len(got), len(want))
		}
		got = got[len(got)-len(want):]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: post-restore journal tail diverges at solve %d:\nstorm      %s\nfault-free %s",
					rank, i, got[i], want[i])
			}
		}
	}
}

// TestStormJournalDeterministic pins the replay story: two storm runs with
// equal seeds — fault plan, market stream, backoff schedule and all — must
// write byte-identical journals.
func TestStormJournalDeterministic(t *testing.T) {
	journal := func() []byte {
		o := stormOpts()
		o.Obs = obs.NewRun()
		if _, err := RunSupervised(o); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.Obs.WriteJournal(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := journal(), journal()
	if len(a) == 0 {
		t.Fatal("storm run wrote an empty journal")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("equal-seed storm journals differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestStormWasteBelowNaiveRestart pins the arbiter's reason to exist: under
// the same storm plan, coalesced group migration must waste strictly less
// virtual time than naive per-event checkpoint-restart, while also ending
// at full width (shrink survives but degrades).
func TestStormWasteBelowNaiveRestart(t *testing.T) {
	o := stormOpts()
	o.OnDemandSupply = 0 // unlimited: isolate arbitration from autoscaling
	cmp, err := CompareRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Migrate.WastedVirtualS >= cmp.Restart.WastedVirtualS {
		t.Fatalf("arbitrated migration wasted %.3fs, naive restart %.3fs — arbiter must waste strictly less",
			cmp.Migrate.WastedVirtualS, cmp.Restart.WastedVirtualS)
	}
	if cmp.Migrate.FinalRanks != o.Ranks {
		t.Fatalf("migrate ended on %d ranks, want %d", cmp.Migrate.FinalRanks, o.Ranks)
	}
	if cmp.Shrink.FinalRanks >= cmp.Migrate.FinalRanks {
		t.Fatalf("shrink kept %d ranks >= migrate's %d; the storm should cost shrink its width",
			cmp.Shrink.FinalRanks, cmp.Migrate.FinalRanks)
	}
}

// TestRegrowRestoresSubmittedWidth exercises the elastic autoscaler's
// re-grow path: an unannounced crash forces the shrink fallback (the world
// drops to 6 ranks — no notice, nothing to migrate in), and when a later
// warm notice migrates, -regrow acquires the deficit node too, so the
// world comes back at the submitted 8 ranks. The intermediate degraded
// generation computes on a different decomposition, so this asserts width
// and bookkeeping, not bit-identity.
func TestRegrowRestoresSubmittedWidth(t *testing.T) {
	o := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 4, Seed: 21, Policy: PolicyMigrate,
		Regrow: true, Obs: obs.NewRun(),
	}
	s, err := newSuperSetup(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s.plan = &fault.Plan{Seed: o.Seed, Events: []fault.Event{
		// No notice at all: the ladder falls back to shrink and the
		// world degrades to 6 ranks.
		{Kind: fault.KindCrash, Node: 1, At: 0.35 * s.cleanS},
		// Warm notice later: migrate, and re-grow the earlier deficit.
		{Kind: fault.KindPreempt, Node: 2, At: 0.9 * s.cleanS, NoticeAt: 0.7 * s.cleanS},
	}}
	rep, _, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}
	mg := rep.Migrate
	if mg == nil || mg.FallbackShrinks != 1 {
		t.Fatalf("stats %+v, want exactly one shrink fallback from the windowless notice", mg)
	}
	if mg.Migrations != 1 {
		t.Fatalf("migrations %d, want 1", mg.Migrations)
	}
	if mg.RegrownNodes != 1 {
		t.Fatalf("autoscaler re-grew %d node(s), want the 1 deficit node", mg.RegrownNodes)
	}
	if rep.FinalRanks != o.Ranks || rep.Degraded {
		t.Fatalf("re-grown run finished on %d ranks (degraded %v), want the submitted %d",
			rep.FinalRanks, rep.Degraded, o.Ranks)
	}
}

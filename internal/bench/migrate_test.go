package bench

import (
	"bytes"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/fault"
	"heterohpc/internal/obs"
)

// warmPreemptSetup prepares a supervised setup whose plan preempts node 1
// with a warm notice: the reclaim lands at reclaimFrac of the clean virtual
// duration and the notice at noticeFrac, so the window between them is real
// virtual time the migrate policy can spend.
func warmPreemptSetup(t *testing.T, o FaultOptions, noticeFrac, reclaimFrac float64) *superSetup {
	t.Helper()
	s, err := newSuperSetup(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s.plan = &fault.Plan{Seed: o.Seed, Events: []fault.Event{{
		Kind: fault.KindPreempt, Node: 1,
		At: reclaimFrac * s.cleanS, NoticeAt: noticeFrac * s.cleanS,
	}}}
	return s
}

func TestDecideRecoveryLadder(t *testing.T) {
	cases := []struct {
		name                    string
		window, copyCost        float64
		canShrink, canProvision bool
		want                    string
	}{
		{"no-survivors", 10, 0, false, true, "restart"},
		{"no-survivors-trumps-window", 0, 0, false, false, "restart"},
		{"no-notice", 0, 0, true, true, "shrink"},
		{"no-capacity", 10, 1, true, false, "shrink"},
		{"window-too-short", 1, 2, true, true, "shrink"},
		{"window-covers-copy", 2, 1, true, true, "migrate"},
		{"cold-but-noticed", 2, 0, true, true, "migrate"},
		// The boundary tie is pinned: migrate wins when the window
		// EXACTLY covers the priced evacuation; only a strictly more
		// expensive copy falls back to shrink.
		{"exact-fit", 1, 1, true, true, "migrate"},
		{"hair-over-boundary", 1, math.Nextafter(1, 2), true, true, "shrink"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec := decideRecovery(c.window, c.copyCost, c.canShrink, c.canProvision)
			if dec.Verb != c.want {
				t.Fatalf("decideRecovery(%v, %v, %v, %v) = %q (%s), want %q",
					c.window, c.copyCost, c.canShrink, c.canProvision, dec.Verb, dec.Reason, c.want)
			}
			if dec.Reason == "" {
				t.Fatal("decision carries no reason")
			}
		})
	}
}

var (
	journalTRe    = regexp.MustCompile(`"t":[0-9.eE+-]+,`)
	journalRankRe = regexp.MustCompile(`"rank":(-?[0-9]+)`)
)

// rankEvents extracts the per-rank "step" and "solve" journal lines with the
// virtual timestamp stripped, in journal (deterministic total) order. The
// remaining bytes pin the numeric content: step indices, solver iteration
// counts, residual values and convergence flags.
func rankEvents(t *testing.T, r *obs.Run) map[string][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJournal(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, ln := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(ln, `"kind":"solve"`) && !strings.Contains(ln, `"kind":"step"`) {
			continue
		}
		m := journalRankRe.FindStringSubmatch(ln)
		if m == nil {
			t.Fatalf("journal line without rank: %s", ln)
		}
		out[m[1]] = append(out[m[1]], journalTRe.ReplaceAllString(ln, ""))
	}
	return out
}

// solveTailAfterStep returns the solve lines that follow the "step" event
// for the given step number in one rank's event sequence.
func solveTailAfterStep(t *testing.T, evs []string, step int) []string {
	t.Helper()
	cut := -1
	for i, ev := range evs {
		if strings.Contains(ev, `"kind":"step"`) && strings.HasSuffix(ev, `"i1":`+strconv.Itoa(step)+`}`) {
			cut = i
		}
	}
	if cut < 0 {
		t.Fatalf("no step %d event in sequence of %d events", step, len(evs))
	}
	var tail []string
	for _, ev := range evs[cut+1:] {
		if strings.Contains(ev, `"kind":"solve"`) {
			tail = append(tail, ev)
		}
	}
	return tail
}

// sameFinalState fails t unless every rank of got ends in the state the same
// rank of want ends in: the last step, its PDE time, the owned ids and every
// field value, bit for bit. Each generation's final state is its store's
// newest copy.
func sameFinalState(t *testing.T, got, want *generation) {
	t.Helper()
	if got.ranks != want.ranks {
		t.Fatalf("%d vs %d ranks", got.ranks, want.ranks)
	}
	for rank := 0; rank < got.ranks; rank++ {
		a, err := got.final(rank)
		if err != nil {
			t.Fatal(err)
		}
		b, err := want.final(rank)
		if err != nil {
			t.Fatal(err)
		}
		if a.StepsDone != got.steps || b.StepsDone != got.steps || math.Float64bits(a.Time) != math.Float64bits(b.Time) {
			t.Fatalf("rank %d: final checkpoints after steps %d and %d (t=%v, %v), want both after step %d",
				rank, a.StepsDone, b.StepsDone, a.Time, b.Time, got.steps)
		}
		if !slices.Equal(a.Owned, b.Owned) {
			t.Fatalf("rank %d: ownership differs", rank)
		}
		x, y := slices.Concat(a.Fields...), slices.Concat(b.Fields...)
		if len(x) == 0 || len(x) != len(y) {
			t.Fatalf("rank %d: %d vs %d final values", rank, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("rank %d dof %d: got %x, want %x — not bit-identical",
					rank, i, math.Float64bits(x[i]), math.Float64bits(y[i]))
			}
		}
	}
}

// TestMigrateContinuesBitIdentical is the core acceptance test for the
// proactive policy: a warm-noticed preemption migrates — drain, buddy
// evacuation, replacement, Grow — and the full-width continuation produces
// the exact solution bytes a fault-free run produces, with the post-restore
// journal tail (solver iterations, residual bits, convergence) matching the
// fault-free run's segment after the restore step.
func TestMigrateContinuesBitIdentical(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = PolicyMigrate
	o.Obs = obs.NewRun()
	s := warmPreemptSetup(t, o, 0.6, 0.9)
	noticeAt := s.plan.Events[0].NoticeAt
	rep, st, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalRanks != o.Ranks || rep.Degraded {
		t.Fatalf("migrate finished on %d ranks (degraded %v), want the full %d", rep.FinalRanks, rep.Degraded, o.Ranks)
	}
	mg := rep.Migrate
	if mg == nil || mg.Migrations != 1 || mg.FallbackShrinks != 0 || mg.FallbackRestarts != 0 {
		t.Fatalf("migrate stats %+v, want exactly one migration and no fallbacks", mg)
	}
	if len(mg.ReplacedNodes) != 1 || mg.ReplacedNodes[0] != 1 {
		t.Fatalf("replaced nodes %v, want [1]", mg.ReplacedNodes)
	}
	if mg.RestoreStep < 1 {
		t.Fatalf("warm migration restored from step %d; a mirrored checkpoint was expected", mg.RestoreStep)
	}
	if mg.EvacuatedBlobs == 0 || mg.CopyBytes == 0 || mg.CopyS <= 0 {
		t.Fatalf("no shards evacuated in the window: %+v", mg)
	}
	if mg.WindowS <= 0 || mg.CopyS > mg.WindowS {
		t.Fatalf("window %.6fs did not cover the %.6fs evacuation", mg.WindowS, mg.CopyS)
	}
	if rep.WastedVirtualS <= 0 || rep.WastedVirtualS >= noticeAt {
		t.Fatalf("wasted %.3fs not in (0, notice %.3fs): only the span after the restore line is recomputed",
			rep.WastedVirtualS, noticeAt)
	}
	if rep.Shrink.Shrinks != 1 {
		t.Fatalf("migration shrinks the doomed node out exactly once, got %d", rep.Shrink.Shrinks)
	}

	// Fault-free comparator at the same width, from scratch, on a fresh
	// target, with its own journal.
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
	if err != nil || af != nil {
		t.Fatalf("fault-free comparator failed: %v / %v", err, af)
	}
	if result == nil {
		t.Fatal("comparator returned no result")
	}

	// Solution bytes: the grown world restored the original decomposition,
	// so rank r owns the same block in both runs and every dof must agree
	// bit for bit.
	sameFinalState(t, st, comp)

	// Journal tail: per rank, the solve events after the restore step in
	// the fault-free run must reappear verbatim (minus virtual timestamps)
	// as the tail of the migrated run's solve events.
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
			t.Fatalf("rank %d: migrated run has %d solves, tail needs %d", rank, len(got), len(want))
		}
		got = got[len(got)-len(want):]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: post-restore journal tail diverges at solve %d:\nmigrated   %s\nfault-free %s",
					rank, i, got[i], want[i])
			}
		}
	}
}

// TestMigrateWarmWastesLessThanShrink pins the waste theorem in the warm
// regime: when no checkpoint completes inside the notice window (the
// realistic shape — a two-minute notice is short against the checkpoint
// cadence), both policies roll back to the same line, so migrate's rollback
// (notice − line) is a strict subset of shrink's (reclaim − line). The
// notice is therefore placed in the same checkpoint interval as the
// reclaim; a window long enough to absorb a whole checkpoint would let
// shrink keep more work, which is not the regime the policy targets.
func TestMigrateWarmWastesLessThanShrink(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = PolicyMigrate
	sm := warmPreemptSetup(t, o, 0.88, 0.9)
	plan := *sm.plan
	repM, _, err := supervise(sm)
	if err != nil {
		t.Fatal(err)
	}

	os := shrinkOpts("rd")
	ss, err := newSuperSetup(os.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	ss.plan = &plan
	repS, _, err := supervise(ss)
	if err != nil {
		t.Fatal(err)
	}
	if repM.WastedVirtualS >= repS.WastedVirtualS {
		t.Fatalf("migrate wasted %.3fs, shrink %.3fs — acting at the notice must be strictly cheaper",
			repM.WastedVirtualS, repS.WastedVirtualS)
	}
	if repM.FinalRanks != 8 || repS.FinalRanks != 6 {
		t.Fatalf("final widths migrate=%d shrink=%d, want 8 and 6", repM.FinalRanks, repS.FinalRanks)
	}
}

func TestMigrateWastesStrictlyLessThanShrink(t *testing.T) {
	o := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 4, Seed: 77, Preemptions: 1,
	}
	c, err := CompareRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Restart.Final == nil || c.Shrink.Final == nil || c.Migrate == nil || c.Migrate.Final == nil {
		t.Fatal("a policy failed to finish")
	}
	if c.Migrate.WastedVirtualS >= c.Shrink.WastedVirtualS {
		t.Fatalf("migrate wasted %.3fs, shrink %.3fs — migrate must be strictly cheaper when the window covers the copy",
			c.Migrate.WastedVirtualS, c.Shrink.WastedVirtualS)
	}
	if c.Migrate.FinalRanks != 8 || c.Shrink.FinalRanks != 6 {
		t.Fatalf("final widths migrate=%d shrink=%d, want 8 and 6", c.Migrate.FinalRanks, c.Shrink.FinalRanks)
	}
	if c.Migrate.Migrate.Migrations == 0 {
		t.Fatalf("noticed preemption did not migrate: %+v", c.Migrate.Migrate)
	}
	if len(c.Migrate.Plan.Events) != 1 || c.Migrate.Plan.Events[0] != c.Shrink.Plan.Events[0] {
		t.Fatalf("policies did not face the same plan: %v vs %v", c.Migrate.Plan, c.Shrink.Plan)
	}
	out := FormatRecoveryComparison(c)
	for _, want := range []string{PolicyRestart, PolicyShrink, PolicyMigrate, "wasted virtual"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestMigrateFallsBackWhenWindowTooShort(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = PolicyMigrate
	s, err := newSuperSetup(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	at := 0.8 * s.cleanS
	s.plan = &fault.Plan{Seed: o.Seed, Events: []fault.Event{{
		Kind: fault.KindPreempt, Node: 1, At: at, NoticeAt: at - 1e-9,
	}}}
	rep, _, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}
	mg := rep.Migrate
	if mg.Migrations != 0 || mg.FallbackShrinks != 1 {
		t.Fatalf("window of 1ns should force the shrink fallback, got %+v", mg)
	}
	if !rep.Degraded || rep.FinalRanks != 6 {
		t.Fatalf("fallback did not degrade: %d ranks, degraded %v", rep.FinalRanks, rep.Degraded)
	}
	if mg.WindowS <= 0 {
		t.Fatal("the notice window was observed even though it was unusable; WindowS must record it")
	}
	if mg.EvacuatedBlobs != 0 || mg.CopyBytes != 0 {
		t.Fatalf("nothing fits in a 1ns window, yet %d blob(s) / %d bytes evacuated", mg.EvacuatedBlobs, mg.CopyBytes)
	}
}

func TestMigrateFallsBackReactiveOnCrash(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = PolicyMigrate
	s := midRunSetup(t, o, 0.6)
	rep, _, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}
	mg := rep.Migrate
	if mg.Migrations != 0 || mg.FallbackShrinks != 1 || mg.WindowS != 0 {
		t.Fatalf("an unannounced crash must take the reactive path: %+v", mg)
	}
	if !rep.Degraded || rep.FinalRanks != 6 || rep.Shrink.Shrinks != 1 {
		t.Fatalf("crash fallback shape wrong: %d ranks, degraded %v, %d shrinks",
			rep.FinalRanks, rep.Degraded, rep.Shrink.Shrinks)
	}
}

func TestMigrateRecoveryDeterministic(t *testing.T) {
	o := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 4, Seed: 77, Preemptions: 1, Policy: PolicyMigrate,
	}
	// Each run computes its own clean baseline.
	resetCleanBaselines()
	a, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	resetCleanBaselines()
	b, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatRecovery(a), FormatRecovery(b); got != want {
		t.Fatalf("migrate recovery not deterministic:\n--- run 1:\n%s\n--- run 2:\n%s", got, want)
	}
}

func TestMigratePolicyNeedsTwoNodes(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = PolicyMigrate
	o.RanksPerNode = 0
	o.Platform = "ec2" // 16 cores per node: all 8 ranks on one node
	if _, err := RunSupervised(o); err == nil {
		t.Fatal("single-node placement accepted for migrate")
	}
}

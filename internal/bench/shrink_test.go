package bench

import (
	"math"
	"strings"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/fault"
)

// shrinkOpts is the shared shape of the shrink tests: 8 ranks spread two
// per node over four puma nodes, so a node loss kills exactly two ranks
// and every rank has an off-node buddy.
func shrinkOpts(app string) FaultOptions {
	return FaultOptions{
		App: app, Platform: "puma", Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 4, Seed: 77, Policy: PolicyShrink,
	}
}

// midRunSetup prepares a supervised setup with a single crash of node 1 at
// the given fraction of the clean virtual duration.
func midRunSetup(t *testing.T, o FaultOptions, frac float64) *superSetup {
	t.Helper()
	s, err := newSuperSetup(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s.plan = &fault.Plan{Seed: o.Seed, Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 1, At: frac * s.cleanS},
	}}
	return s
}

func TestShrinkContinueRecoversMidRun(t *testing.T) {
	s := midRunSetup(t, shrinkOpts("rd"), 0.6)
	rep, st, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalRanks != 6 || !rep.Degraded {
		t.Fatalf("finished on %d ranks (degraded %v), want 6", rep.FinalRanks, rep.Degraded)
	}
	sh := rep.Shrink
	if sh == nil || sh.Shrinks != 1 || sh.Survivors != 6 {
		t.Fatalf("shrink stats %+v", sh)
	}
	if sh.RestoreStep < 1 {
		t.Fatalf("mid-run crash resumed from step %d; a warm mirrored restore was expected", sh.RestoreStep)
	}
	if sh.BuddyBytes == 0 || sh.BuddyOverheadS <= 0 {
		t.Fatalf("no buddy traffic metered: %+v", sh)
	}
	if sh.AgreeS <= 0 || sh.RedistributeS <= 0 {
		t.Fatalf("agreement/redistribution cost not charged: %+v", sh)
	}
	if sh.Grid[0]*sh.Grid[1]*sh.Grid[2] != 6 {
		t.Fatalf("survivor grid %v does not cover 6 ranks", sh.Grid)
	}
	if rep.WastedVirtualS <= 0 || rep.WastedVirtualS >= s.plan.Events[0].At {
		t.Fatalf("wasted %.3fs not in (0, crash time %.3fs): warm rollback expected",
			rep.WastedVirtualS, s.plan.Events[0].At)
	}
	if rep.MakespanS <= rep.FinalVirtualS {
		t.Fatalf("makespan %.3f should exceed the continuation's own %.3f (clocks carry)",
			rep.MakespanS, rep.FinalVirtualS)
	}
	if st.ranks != 6 || st.held == nil {
		t.Fatalf("run state %+v lacks held fragments", st)
	}
}

func TestShrinkContinueFinalSolutionBitIdentical(t *testing.T) {
	o := shrinkOpts("rd")
	s := midRunSetup(t, o, 0.6)
	rep, st, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}

	// Comparator: a clean run at the degraded rank count resuming from the
	// same redistributed snapshot — no agreement round, no mirroring (its
	// store is stable storage), a fresh target. Redistribution is a pure
	// permutation, so the recovered run must match it bit for bit.
	comp := st.next(st.grid, st.ranks, newSnapshotStore(st.ranks, nil, nil))
	comp.held = st.held
	tg, err := core.NewTarget(o.Platform, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	result, af, err := tg.Attempt(core.JobSpec{
		Ranks: st.ranks, RanksPerNode: o.RanksPerNode, App: comp, MemPerRankGB: s.mem,
	})
	if err != nil || af != nil {
		t.Fatalf("comparator run failed: %v / %v", err, af)
	}

	sameFinalState(t, st, comp)
	for k, v := range rep.Final.Metrics {
		if math.Float64bits(v) != math.Float64bits(result.Metrics[k]) {
			t.Fatalf("metric %s: recovered %v, comparator %v", k, v, result.Metrics[k])
		}
	}
}

func TestShrinkWastesStrictlyLessThanRestart(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = ""
	o.Crashes = 1
	c, err := CompareRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Restart.Final == nil || c.Shrink.Final == nil {
		t.Fatal("a policy failed to finish")
	}
	if c.Shrink.WastedVirtualS >= c.Restart.WastedVirtualS {
		t.Fatalf("shrink wasted %.3fs, restart %.3fs — shrink must be strictly cheaper under the same plan",
			c.Shrink.WastedVirtualS, c.Restart.WastedVirtualS)
	}
	if len(c.Restart.Plan.Events) != 1 || len(c.Shrink.Plan.Events) != 1 ||
		c.Restart.Plan.Events[0] != c.Shrink.Plan.Events[0] {
		t.Fatalf("policies did not face the same plan: %v vs %v", c.Restart.Plan, c.Shrink.Plan)
	}
	out := FormatRecoveryComparison(c)
	for _, want := range []string{PolicyRestart, PolicyShrink, "wasted virtual"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestShrinkRecoveryDeterministic(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = ""
	o.Crashes = 1
	a, err := CompareRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompareRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatRecovery(a.Shrink), FormatRecovery(b.Shrink); got != want {
		t.Fatalf("shrink recovery not deterministic:\n--- run 1:\n%s\n--- run 2:\n%s", got, want)
	}
	if got, want := FormatRecoveryComparison(a), FormatRecoveryComparison(b); got != want {
		t.Fatalf("comparison not deterministic:\n--- run 1:\n%s\n--- run 2:\n%s", got, want)
	}
}

func TestShrinkContinueNavierStokes(t *testing.T) {
	o := shrinkOpts("ns")
	o.PerRankN = 2
	o.Steps = 3
	s := midRunSetup(t, o, 0.5)
	rep, st, err := supervise(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalRanks != 6 || rep.Shrink.Shrinks != 1 {
		t.Fatalf("ns shrink finished on %d ranks after %d shrinks", rep.FinalRanks, rep.Shrink.Shrinks)
	}
	if v := rep.Final.Metrics["vel_max_err"]; math.IsNaN(v) || v <= 0 {
		t.Fatalf("ns continuation produced vel_max_err %v", v)
	}
	if st.held == nil && rep.Shrink.RestoreStep >= 1 {
		t.Fatal("warm ns restore without held fragments")
	}
}

func TestShrinkPolicyNeedsTwoNodes(t *testing.T) {
	o := shrinkOpts("rd")
	o.RanksPerNode = 0 // 8 ranks pack onto 4-core puma nodes -> 2 nodes; force 1 node via ec2
	o.Platform = "ec2" // 16 cores per node: all 8 ranks on one node
	s, err := newSuperSetup(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := supervise(s); err == nil {
		t.Fatal("single-node placement accepted for shrink-and-continue")
	}
}

func TestRunSupervisedRejectsUnknownPolicy(t *testing.T) {
	o := shrinkOpts("rd")
	o.Policy = "abandon-ship"
	if _, err := RunSupervised(o); err == nil || !strings.Contains(err.Error(), "abandon-ship") {
		t.Fatalf("unknown policy accepted: %v", err)
	}
}

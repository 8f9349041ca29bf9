package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"heterohpc/internal/obs"
)

func TestReplayPlainAnchorsBeforeDivergence(t *testing.T) {
	d, err := ReplayFromCheckpoint(FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, PerRankN: 2,
		Steps: 3, Seed: 7,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.AnchorStep != 2 || d.ColdStart {
		t.Fatalf("anchor = %d (cold %v), want 2", d.AnchorStep, d.ColdStart)
	}
	if d.DivStep != 3 || len(d.PerRank) != 8 {
		t.Fatalf("divStep=%d ranks=%d", d.DivStep, len(d.PerRank))
	}
	if d.MaxVirtualS <= 0 {
		t.Fatalf("no virtual time replayed: %v", d.MaxVirtualS)
	}
	// The high-water exists only once the anchored run's recorders are
	// folded into its metrics.
	if d.MailboxHighWater < 1 {
		t.Fatalf("mailbox high-water %v, want at least one message", d.MailboxHighWater)
	}
	for _, rs := range d.PerRank {
		if rs.StepsDone != 3 {
			t.Fatalf("rank %d stopped at step %d, want 3", rs.Rank, rs.StepsDone)
		}
		if rs.LastSolver == "" || rs.LastIters <= 0 || !rs.Converged {
			t.Fatalf("rank %d missing solve context: %+v", rs.Rank, rs)
		}
		if rs.ClockS <= 0 || rs.StateL2 <= 0 || rs.StateMax <= 0 {
			t.Fatalf("rank %d missing state: %+v", rs.Rank, rs)
		}
	}
	out := FormatReplayDump(d)
	hw := fmt.Sprintf("mailbox high-water %.0f", d.MailboxHighWater)
	for _, want := range []string{"checkpoint-anchored replay", "after step 2", "to step 3", "state-l2", hw} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestReplayColdStartAtFirstStep(t *testing.T) {
	d, err := ReplayFromCheckpoint(FaultOptions{
		App: "rd", Platform: "puma", Ranks: 8, PerRankN: 2,
		Steps: 2, Seed: 7,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ColdStart || d.AnchorStep != 0 {
		t.Fatalf("want cold start, got anchor %d", d.AnchorStep)
	}
	for _, rs := range d.PerRank {
		if rs.StepsDone != 1 {
			t.Fatalf("rank %d at step %d, want 1", rs.Rank, rs.StepsDone)
		}
	}
	if !strings.Contains(FormatReplayDump(d), "replayed from scratch") {
		t.Error("dump missing cold-start note")
	}
}

func TestReplayFaultedScenario(t *testing.T) {
	d, err := ReplayFromCheckpoint(FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, PerRankN: 2,
		Steps: 3, Seed: 11, Crashes: 1, Preemptions: 1,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.AnchorStep != 1 || d.ColdStart {
		t.Fatalf("anchor = %d (cold %v), want 1", d.AnchorStep, d.ColdStart)
	}
	for _, rs := range d.PerRank {
		if rs.StepsDone != 2 {
			t.Fatalf("rank %d at step %d, want 2", rs.Rank, rs.StepsDone)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	opt := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, PerRankN: 2,
		Steps: 3, Seed: 11, Crashes: 1,
	}
	a, err := ReplayFromCheckpoint(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayFromCheckpoint(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if FormatReplayDump(a) != FormatReplayDump(b) {
		t.Fatalf("equal-seed replays differ:\n%s\nvs\n%s", FormatReplayDump(a), FormatReplayDump(b))
	}
}

// With the tap on the one store every policy's checkpoint stream anchors a
// replay. For a divergence before the first failure the anchored phase 2 is
// fault-free and policy-independent, so the shrink and migrate replays must
// return the restart replay's dump.
func TestReplayEveryPolicyAnchorsBeforeFirstFailure(t *testing.T) {
	opt := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, RanksPerNode: 2, PerRankN: 2,
		Steps: 4, Seed: 4, Crashes: 1, Preemptions: 1,
	}
	const divStep = 2
	dumps := map[string]string{}
	for _, policy := range allPolicies {
		opt.Policy = policy
		d, err := ReplayFromCheckpoint(opt, divStep)
		if err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		if d.AnchorStep != 1 || d.ColdStart {
			t.Fatalf("policy %s: anchor = %d (cold %v), want the checkpoint after step 1", policy, d.AnchorStep, d.ColdStart)
		}
		dumps[policy] = FormatReplayDump(d)
	}
	for _, policy := range []string{PolicyShrink, PolicyMigrate} {
		if dumps[policy] != dumps[PolicyRestart] {
			t.Errorf("%s replay differs from the restart replay:\n%s\nvs\n%s", policy, dumps[policy], dumps[PolicyRestart])
		}
	}

	// Only submitted-width generations anchor. Seed 7 loses a node before
	// every rank saved step 1: restart relaunches at full width and writes
	// the anchor then, shrink never gets back to that width, so its replay
	// starts cold — and still reaches the divergence step.
	opt.Seed, opt.Policy = 7, PolicyShrink
	d, err := ReplayFromCheckpoint(opt, divStep)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ColdStart || d.PerRank[0].StepsDone != divStep {
		t.Errorf("shrink replay without a full-width anchor: cold %v, rank 0 at step %d, want a cold replay to step %d",
			d.ColdStart, d.PerRank[0].StepsDone, divStep)
	}
}

// TestPointJournalDeterminism pins the sweep's primitive: equal
// configurations give byte-identical journals, different platform models
// diverge (the outlier-hunting signal), and every produced journal
// parses. Note the seed alone does not perturb a fault-free journal — it
// drives queue waits and markets, which a clean job's ranks never see.
func TestPointJournalDeterminism(t *testing.T) {
	o := Options{PerRankN: 2, Steps: 2, MaxRanks: 8, Seed: 7}
	a, err := PointJournal("rd", "ec2", 8, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PointJournal("rd", "ec2", 8, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("equal-seed point journals differ")
	}
	if _, err := obs.ReadJournal(bytes.NewReader(a)); err != nil {
		t.Fatalf("point journal does not parse: %v", err)
	}
	c, err := PointJournal("rd", "puma", 8, o)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("ec2 and puma point journals identical — platform model not in the journal")
	}
}

package bench

import (
	"math"
	"strings"
	"testing"

	"heterohpc/internal/fault"
)

// The headline guarantee of the supervisor: a run killed by injected
// crashes restores from checkpoints and converges to the same solution as
// the clean run, within solver tolerance.
func TestSupervisedConvergesDespiteCrashes(t *testing.T) {
	o := FaultOptions{
		App: "rd", Platform: "puma", Ranks: 8, PerRankN: 6, Steps: 4,
		Seed: 7, Crashes: 2,
	}
	rep, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts < 2 {
		t.Fatalf("only %d attempt(s); the injected crashes never fired", rep.Attempts)
	}
	if rep.Degraded || rep.FinalRanks != 8 {
		t.Fatalf("spares should have kept the job at full size: %+v", rep)
	}
	cleanErr := rep.Clean.Metrics["max_err"]
	finalErr := rep.Final.Metrics["max_err"]
	if math.Abs(cleanErr-finalErr) > 1e-10 {
		t.Errorf("recovered max_err %v differs from clean %v", finalErr, cleanErr)
	}
	if finalErr > 1e-4 {
		t.Errorf("recovered solution wrong: max_err %v", finalErr)
	}
	if rep.WastedVirtualS <= 0 || rep.BackoffS <= 0 {
		t.Errorf("overhead not accounted: wasted %v backoff %v", rep.WastedVirtualS, rep.BackoffS)
	}
	if rep.RecoveryCostUSD <= 0 {
		t.Errorf("failed attempts cost nothing: %v", rep.RecoveryCostUSD)
	}
	kinds := map[string]int{}
	for _, d := range rep.Decisions {
		kinds[d.Kind]++
	}
	for _, k := range []string{"failure", "provision", "restore", "backoff", "complete"} {
		if kinds[k] == 0 {
			t.Errorf("decision log lacks %q: %v", k, kinds)
		}
	}
}

// Equal seeds must replay the identical recovery, decision for decision.
func TestSupervisedDeterministicForEqualSeeds(t *testing.T) {
	o := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, PerRankN: 6, Steps: 4,
		Seed: 11, Crashes: 1, Preemptions: 1,
	}
	r1, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Attempts != r2.Attempts || r1.WastedVirtualS != r2.WastedVirtualS ||
		r1.RecoveryCostUSD != r2.RecoveryCostUSD || r1.FinalRanks != r2.FinalRanks {
		t.Fatalf("recoveries differ:\n%+v\n%+v", r1, r2)
	}
	d1, d2 := r1.Decisions, r2.Decisions
	if len(d1) != len(d2) {
		t.Fatalf("decision counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, d1[i], d2[i])
		}
	}
	if r1.Final.Metrics["max_err"] != r2.Final.Metrics["max_err"] {
		t.Fatal("recovered solutions differ across replays")
	}
}

// With no spares and no market, losing a node degrades the job onto the
// survivors at the next smaller cube instead of failing.
func TestSupervisedDegradesWithoutReplacement(t *testing.T) {
	// puma packs 4 ranks per node -> 27 ranks on 7 nodes; losing one leaves
	// room for 24, so the supervisor must re-partition onto 8 ranks.
	o := FaultOptions{
		App: "rd", Platform: "puma", Ranks: 27, PerRankN: 5, Steps: 3,
		Seed: 5, Crashes: 1, SpareNodes: -1, // negative: pool exhausted
	}
	rep, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.FinalRanks >= 27 {
		t.Fatalf("expected graceful degradation, got %d ranks (degraded=%v)",
			rep.FinalRanks, rep.Degraded)
	}
	if rep.FinalRanks != 8 {
		t.Errorf("degraded to %d ranks, want the next cube 8", rep.FinalRanks)
	}
	if rep.Final.Metrics["max_err"] > 1e-4 {
		t.Errorf("degraded solution wrong: max_err %v", rep.Final.Metrics["max_err"])
	}
}

// A supervised NS run exercises the NS checkpoint layout end to end.
func TestSupervisedNSRecovers(t *testing.T) {
	o := FaultOptions{
		App: "ns", Platform: "ec2", Ranks: 8, PerRankN: 4, Steps: 3,
		Seed: 3, Crashes: 1,
	}
	rep, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts < 2 {
		t.Fatalf("crash never fired (%d attempts)", rep.Attempts)
	}
	if diff := math.Abs(rep.Clean.Metrics["vel_max_err"] - rep.Final.Metrics["vel_max_err"]); diff > 1e-10 {
		t.Errorf("recovered NS error drifted by %v", diff)
	}
	out := FormatRecovery(rep)
	for _, want := range []string{"supervisor decisions", "recovered", "wasted virtual"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRecovery lacks %q:\n%s", want, out)
		}
	}
}

// A plan whose single fatal event lies beyond the clean duration never
// fires; the supervisor should report a one-attempt clean pass-through.
func TestSupervisedCleanPassThrough(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 0, At: 1e9},
	}}
	rep, err := RunSupervised(FaultOptions{
		App: "rd", Platform: "puma", Ranks: 8, PerRankN: 5, Steps: 3,
		Seed: 9, Plan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || rep.WastedVirtualS != 0 || rep.RecoveryCostUSD != 0 {
		t.Fatalf("clean pass-through mis-accounted: %+v", rep)
	}
}

func TestLargestCubeAtMost(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {7, 1}, {8, 8}, {26, 8}, {27, 27}, {28, 27}, {1000, 1000}, {1001, 1000},
	}
	for _, c := range cases {
		if got := largestCubeAtMost(c.n); got != c.want {
			t.Errorf("largestCubeAtMost(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDegradedShape(t *testing.T) {
	cases := []struct{ cur, want, expect int }{
		{8, 7, 1},        // largest cube <= 7 is 1
		{27, 26, 8},      // one node short of a cube drops to the next cube
		{8, 8, 1},        // target not smaller than current: fall back below cur
		{1000, 999, 729}, // 9^3
		{27, 0, 8},       // nonsense target still degrades below cur
		{1, 0, 0},        // nowhere to go
	}
	for _, c := range cases {
		if got := degradedShape(c.cur, c.want); got != c.expect {
			t.Errorf("degradedShape(%d, %d) = %d, want %d", c.cur, c.want, got, c.expect)
		}
	}
}

// TestValidateFaults holds the one scenario check the CLI, RunSupervised,
// CompareRecovery and ReplayFromCheckpoint share: each row is valid, or is
// refused with a message naming what is wrong.
func TestValidateFaults(t *testing.T) {
	ok := FaultOptions{App: "rd", Platform: "puma", Policy: PolicyRestart,
		Ranks: 8, Seed: 2012, Crashes: 1}
	cases := []struct {
		name    string
		mutate  func(*FaultOptions)
		wantErr string // substring; "" means valid
	}{
		{"defaults are valid", func(c *FaultOptions) {}, ""},
		{"shrink policy is valid", func(c *FaultOptions) { c.Policy = PolicyShrink }, ""},
		{"migrate policy is valid", func(c *FaultOptions) { c.Policy = PolicyMigrate }, ""},
		{"no policy (CompareRecovery's) is valid", func(c *FaultOptions) { c.Policy = "" }, ""},
		{"zero fault counts are valid", func(c *FaultOptions) { c.Crashes = 0 }, ""},
		{"zero ranks", func(c *FaultOptions) { c.Ranks = 0 }, "rank"},
		{"negative ranks per node", func(c *FaultOptions) { c.RanksPerNode = -2 }, "-rpn"},
		{"negative mesh edge", func(c *FaultOptions) { c.PerRankN = -2 }, "-n -2 is negative"},
		{"negative steps", func(c *FaultOptions) { c.Steps = -1 }, "-steps -1 is negative"},
		{"negative skip", func(c *FaultOptions) { c.SkipSteps = -1 }, "-skip -1 is negative"},
		{"negative attempt cap", func(c *FaultOptions) { c.MaxAttempts = -1 }, "MaxAttempts -1 is negative"},
		{"negative crashes", func(c *FaultOptions) { c.Crashes = -1 }, "crashes"},
		{"negative preemptions", func(c *FaultOptions) { c.Preemptions = -3 }, "preempts"},
		{"negative degradations", func(c *FaultOptions) { c.Degradations = -1 }, "degrades"},
		{"unknown app", func(c *FaultOptions) { c.App = "lbm" }, `app "lbm"`},
		{"unknown policy", func(c *FaultOptions) { c.Policy = "abandon-ship" }, `policy "abandon-ship"`},
		{"misspelled policy", func(c *FaultOptions) { c.Policy = "shrink" }, PolicyShrink},
		{"misspelled migrate", func(c *FaultOptions) { c.Policy = "migrate-continue" }, PolicyMigrate},
		{"storm wave is valid", func(c *FaultOptions) { c.StormWave = 3 }, ""},
		{"storm with cascades and bursts is valid",
			func(c *FaultOptions) { c.StormWave = 2; c.StormCascades = 1; c.StormBursts = 1 }, ""},
		{"negative storm", func(c *FaultOptions) { c.StormWave = -2 }, "-storm -2 is negative"},
		{"storm of one", func(c *FaultOptions) { c.StormWave = 1 }, "lone preemption"},
		{"negative cascades", func(c *FaultOptions) { c.StormWave = 3; c.StormCascades = -1 }, "-cascades -1"},
		{"negative bursts", func(c *FaultOptions) { c.StormWave = 3; c.StormBursts = -2 }, "-bursts -2"},
		{"cascades without a storm", func(c *FaultOptions) { c.StormCascades = 1 }, "add -storm"},
		{"bursts without a storm", func(c *FaultOptions) { c.StormBursts = 2 }, "add -storm"},
		{"regrow under restart", func(c *FaultOptions) { c.Regrow = true }, "-regrow"},
		{"regrow under migrate is valid",
			func(c *FaultOptions) { c.Regrow = true; c.Policy = PolicyMigrate }, ""},
		{"regrow under no policy (CompareRecovery's) is valid",
			func(c *FaultOptions) { c.Regrow = true; c.Policy = "" }, ""},
		{"capped market is valid",
			func(c *FaultOptions) { c.OnDemandSupply = -1; c.ProvisionRetries = 2 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok
			tc.mutate(&c)
			err := ValidateFaults(c)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// Both applications' meshes refuse a non-positive edge with an error, so a
// caller that skips ValidateFaults gets no panic.
func TestWeakGenerationRejectsNonPositiveMesh(t *testing.T) {
	for _, app := range []string{"rd", "ns"} {
		if _, _, err := weakGeneration(app, 8, -2, 4, nil); err == nil {
			t.Errorf("%s: a mesh edge of -2 per rank was accepted", app)
		}
	}
}

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

package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/fault"
	"heterohpc/internal/trace"
)

// resetCleanBaselines empties the clean-baseline memo, so the next
// supervised run computes its baseline on its own target.
func resetCleanBaselines() {
	lastClean.Lock()
	lastClean.base = nil
	lastClean.Unlock()
}

// freshClean computes o's clean baseline the way the supervisor did before
// it kept one: on a target of its own.
func freshClean(t *testing.T, o FaultOptions) *core.Report {
	t.Helper()
	o = o.withDefaults()
	tg, err := core.NewTarget(o.Platform, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	app, mem, err := weakGeneration(o.App, o.Ranks, o.PerRankN, o.Steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tg.Run(core.JobSpec{
		Ranks: o.Ranks, RanksPerNode: o.RanksPerNode, App: app,
		SkipSteps: o.SkipSteps, MemPerRankGB: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCleanBaselineReuseHidesNothing holds the memo to what it replaces,
// for one RD and one NS shape: the second of two equal runs reuses the
// first's baseline, which prints (%+v) exactly as one computed on a fresh
// target, and reports and journals the same bytes as the first, which
// computed the baseline on its supervised target, let its first attempt
// adopt the clean job's shapes and reset the target's scheduler stream.
func TestCleanBaselineReuseHidesNothing(t *testing.T) {
	for _, o := range []FaultOptions{
		with(small("rd", "ec2", 11), func(o *FaultOptions) { o.Crashes, o.Preemptions = 1, 1 }),
		with(small("ns", "puma", 77), func(o *FaultOptions) { o.PerRankN, o.Steps, o.Crashes = 2, 3, 1 }),
	} {
		t.Run(o.App, func(t *testing.T) {
			resetCleanBaselines()
			var reps [2]*RecoveryReport
			var journals [2][]byte
			for i := range reps { // a miss, then a hit
				var err error
				if reps[i], journals[i], err = runJournaled(o); err != nil {
					t.Fatal(err)
				}
			}
			if reps[0].Clean != reps[1].Clean {
				t.Fatal("the second run computed its own baseline")
			}
			if got, want := FormatRecovery(reps[1]), FormatRecovery(reps[0]); got != want {
				t.Errorf("a reused baseline changed the report:\n--- miss:\n%s\n--- hit:\n%s", want, got)
			}
			if got, want := fmt.Sprintf("%+v", *reps[1].Final), fmt.Sprintf("%+v", *reps[0].Final); got != want {
				t.Errorf("a reused baseline changed the final report (its queue wait is the target's first draw):\n%s\n%s", got, want)
			}
			if sha(journals[1]) != sha(journals[0]) {
				t.Errorf("a reused baseline changed the journal: %s, was %s", sha(journals[1]), sha(journals[0]))
			}
			if got, want := fmt.Sprintf("%+v", *reps[1].Clean), fmt.Sprintf("%+v", *freshClean(t, o)); got != want {
				t.Errorf("reused baseline differs from a fresh target's:\n%s\n%s", got, want)
			}
		})
	}
}

// TestCleanBaselineConcurrentCallsAgree runs equal supervised jobs at once
// on an empty memo: however the calls interleave (computing or reusing the
// baseline), every report is the same.
func TestCleanBaselineConcurrentCallsAgree(t *testing.T) {
	resetCleanBaselines()
	o := with(small("rd", "ec2", 11), func(o *FaultOptions) { o.Crashes = 1 })
	const calls = 3
	var texts, cleans [calls]string
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := RunSupervised(o)
			if err != nil {
				t.Error(err)
				return
			}
			texts[i], cleans[i] = FormatRecovery(rep), fmt.Sprintf("%+v\n%+v", *rep.Clean, *rep.Final)
		}()
	}
	wg.Wait()
	for i := 1; i < calls; i++ {
		if texts[i] != texts[0] || cleans[i] != cleans[0] {
			t.Errorf("call %d differs from call 0:\n%s\n%s", i, texts[i], texts[0])
		}
	}
}

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
	// Each run computes its own clean baseline.
	resetCleanBaselines()
	r1, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	resetCleanBaselines()
	r2, err := RunSupervised(o)
	if err != nil {
		t.Fatal(err)
	}
	if c1, c2 := fmt.Sprintf("%+v", *r1.Clean), fmt.Sprintf("%+v", *r2.Clean); c1 != c2 {
		t.Fatalf("clean baselines differ:\n%s\n%s", c1, c2)
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

// With the spares used up and no market, or on a sold-out market, losing a
// node degrades the job onto the survivors at the next smaller cube instead
// of failing. The smaller launch has fewer nodes than the plan was drawn
// for: each later event aimed at a slot it released is dropped, and none is
// announced as if its node still ran.
func TestSupervisedDegradesWithoutReplacement(t *testing.T) {
	cases := []struct {
		name string
		o    FaultOptions
		// plan, when set, places the events at fractions of the clean
		// horizon.
		plan  func(c float64) []fault.Event
		ranks int
		// dropped are the plan slots of the events after the degrade, in
		// plan order.
		dropped []int
	}{
		// puma packs 4 ranks per node -> 27 ranks on 7 nodes. The two cold
		// spares replace the first two lost nodes; the third loss leaves
		// room for 24, so the supervisor must re-partition onto 8 ranks.
		{name: "no-spares", ranks: 8,
			o: FaultOptions{App: "rd", Platform: "puma", Ranks: 27, PerRankN: 5, Steps: 3, Seed: 5, Crashes: 3}},
		// Four nodes of two ranks and no on-demand supply: losing node 1
		// leaves room for 6 ranks, so the job relaunches on 1 rank on slot
		// 0's node and releases slots 1, 2 and 3.
		{name: "sold-out-market", ranks: 1, dropped: []int{3, 2},
			o: with(small("rd", "ec2", 12), func(o *FaultOptions) { o.OnDemandSupply = -1 }),
			plan: func(c float64) []fault.Event {
				return []fault.Event{
					{Kind: fault.KindCrash, Node: 1, At: 0.3 * c},
					{Kind: fault.KindPreempt, Node: 3, At: 0.8 * c, NoticeAt: 0.5 * c},
					{Kind: fault.KindCrash, Node: 2, At: 0.9 * c},
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.o
			if c.plan != nil {
				_, clean, err := cleanJobOf(o.withDefaults()).baseline()
				if err != nil {
					t.Fatal(err)
				}
				o.Plan = &fault.Plan{Seed: o.Seed, Events: c.plan(clean.virtualS)}
			}
			rep, err := RunSupervised(o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Degraded || rep.FinalRanks != c.ranks {
				t.Fatalf("degraded to %d ranks (degraded=%v), want the cube %d", rep.FinalRanks, rep.Degraded, c.ranks)
			}
			if rep.Final.Metrics["max_err"] > 1e-4 {
				t.Errorf("degraded solution wrong: max_err %v", rep.Final.Metrics["max_err"])
			}
			at := slices.IndexFunc(rep.Decisions, func(d trace.Decision) bool { return d.Kind == "degrade" })
			var dropped []int
			for _, d := range rep.Decisions[at:] {
				switch d.Kind {
				case "notice":
					t.Errorf("notice for a released slot after the degrade: %v", d)
				case "drop":
					var kind string
					var node int
					if _, err := fmt.Sscanf(d.Detail, "scheduled %s targets node %d", &kind, &node); err != nil {
						t.Fatalf("drop %q: %v", d.Detail, err)
					}
					dropped = append(dropped, node)
				}
			}
			if !slices.Equal(dropped, c.dropped) {
				t.Errorf("dropped slots %v after the degrade, want %v:\n%s", dropped, c.dropped, trace.FormatDecisions(rep.Decisions))
			}
		})
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

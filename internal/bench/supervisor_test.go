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
				if reps[i], _, journals[i], err = runJournaled(o); err != nil {
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
// node degrades the job onto one node fewer instead of failing: the
// submitted mesh, re-partitioned and resumed from the stable restore line,
// bit for bit what a clean run on the smaller grid resumed from the same
// fragments computes. The smaller launch releases the lost slot: a later
// event aimed at it is dropped and none is announced, while the surviving
// slots' events fire on the degraded job. Each recovery point restores
// once: a degrade from the newest line on stable storage (the degraded
// generation's own once it saved one), a restart of a degraded generation
// that saved none by redistributing its fragments again.
func TestSupervisedDegradesWithoutReplacement(t *testing.T) {
	cases := []struct {
		name string
		o    FaultOptions
		// plan, when set, places the events at fractions of the clean
		// horizon. Every attempt's clock starts at zero, so an event placed
		// earlier than the one before it fires early in the next attempt.
		plan func(c float64) []fault.Event
		// widths are the rank counts the degrades land on, in order; lines
		// the step each recovery point restores from (0: from scratch).
		widths, lines []int
		// dropped are the plan slots of the events dropped, in plan order.
		dropped []int
		// fromStore: the last recovery point restarts the final generation
		// from its own store, so it holds no fragments.
		fromStore bool
	}{
		// puma packs 4 ranks per node -> 27 ranks on 7 nodes. The two cold
		// spares replace the first two lost nodes; the third loss leaves 6
		// nodes, so the supervisor re-partitions onto 24 ranks.
		{name: "no-spares", widths: []int{24}, lines: []int{0, 0, 1},
			o: FaultOptions{App: "rd", Platform: "puma", Ranks: 27, PerRankN: 5, Steps: 3, Seed: 5, Crashes: 3}},
		// Four nodes of two ranks and no on-demand supply: losing node 1
		// before the first checkpoint relaunches on 6 ranks from scratch;
		// slot 3's preemption then hits the degraded job after it saved
		// step 3, and the second degrade resumes 4 ranks from that line.
		{name: "sold-out-market", widths: []int{6, 4}, lines: []int{0, 3},
			o: with(small("rd", "ec2", 12), func(o *FaultOptions) { o.OnDemandSupply = -1 }),
			plan: func(c float64) []fault.Event {
				return []fault.Event{
					{Kind: fault.KindCrash, Node: 1, At: 0.3 * c},
					{Kind: fault.KindPreempt, Node: 3, At: 0.8 * c, NoticeAt: 0.5 * c},
					{Kind: fault.KindCrash, Node: 2, At: 0.9 * c},
				}
			}},
		// The degraded job loses node 2 before it saves a step of its own,
		// so the second degrade re-deals the first line's copies onto 4
		// ranks; the crash aimed at the released slot 1 is dropped.
		{name: "degrade-before-a-line", widths: []int{6, 4}, lines: []int{1, 1}, dropped: []int{1},
			o: with(small("rd", "ec2", 12), func(o *FaultOptions) { o.OnDemandSupply = -1 }),
			plan: func(c float64) []fault.Event {
				return []fault.Event{
					{Kind: fault.KindCrash, Node: 1, At: 0.45 * c},
					{Kind: fault.KindCrash, Node: 2, At: 0.15 * c},
					{Kind: fault.KindCrash, Node: 1, At: 0.2 * c},
				}
			}},
		// The market is dry at the first loss and sells a spot instance at
		// the second, which hits the degraded job before it saves a step:
		// the restart keeps 6 ranks and redistributes the first line again.
		{name: "restart-before-a-line", widths: []int{6}, lines: []int{1, 1},
			o: with(small("rd", "ec2", 411), func(o *FaultOptions) { o.OnDemandSupply = -1 }),
			plan: func(c float64) []fault.Event {
				return []fault.Event{
					{Kind: fault.KindCrash, Node: 1, At: 0.45 * c},
					{Kind: fault.KindCrash, Node: 2, At: 0.15 * c},
				}
			}},
		// The same after the degraded job saved steps of its own: the
		// restart resumes its 6 ranks from their newest common step and
		// drops the fragments.
		{name: "restart-after-a-line", widths: []int{6}, lines: []int{1, 2}, fromStore: true,
			o: with(small("rd", "ec2", 411), func(o *FaultOptions) { o.OnDemandSupply = -1 }),
			plan: func(c float64) []fault.Event {
				return []fault.Event{
					{Kind: fault.KindCrash, Node: 1, At: 0.45 * c},
					{Kind: fault.KindCrash, Node: 2, At: 0.5 * c},
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.o.withDefaults()
			if c.plan != nil {
				_, clean, err := cleanJobOf(o).baseline()
				if err != nil {
					t.Fatal(err)
				}
				o.Plan = &fault.Plan{Seed: o.Seed, Events: c.plan(clean.virtualS)}
			}
			s, err := newSuperSetup(o)
			if err != nil {
				t.Fatal(err)
			}
			rep, st, err := supervise(s)
			if err != nil {
				t.Fatal(err)
			}
			log := trace.FormatDecisions(rep.Decisions)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Errorf(format+"\n%s", append(args, log)...)
			}
			checkRecovery(t, o, rep, st, fail)

			var widths, lines, dropped []int
			released := map[int]bool{}
			failed, restores := -1, 0
			for _, d := range rep.Decisions {
				var kind string
				var node, n int
				switch d.Kind {
				case "failure":
					if _, err := fmt.Sscanf(d.Detail, "%s killed node %d", &kind, &failed); err != nil {
						t.Fatalf("failure %q: %v", d.Detail, err)
					}
					lines, restores = append(lines, 0), 0
				case "degrade":
					released[failed] = true
					if _, err := fmt.Sscanf(d.Detail, "re-partitioning onto %d of", &n); err != nil {
						t.Fatalf("degrade %q: %v", d.Detail, err)
					}
					widths = append(widths, n)
				case "restore":
					if restores++; restores > 1 {
						fail("the recovery point of node %d restored twice", failed)
					}
					if _, after, ok := strings.Cut(d.Detail, "after step "); ok {
						fmt.Sscanf(after, "%d", &lines[len(lines)-1])
					}
				case "notice":
					if _, err := fmt.Sscanf(d.Detail, "spot interruption notice for node %d", &node); err == nil && released[node] {
						fail("notice for the released slot %d", node)
					}
				case "drop":
					if _, err := fmt.Sscanf(d.Detail, "scheduled %s targets node %d", &kind, &node); err != nil {
						t.Fatalf("drop %q: %v", d.Detail, err)
					}
					dropped = append(dropped, node)
				}
			}
			if !rep.Degraded || !slices.Equal(widths, c.widths) || rep.FinalRanks != c.widths[len(c.widths)-1] {
				fail("degraded onto %v and finished on %d ranks (degraded=%v), want %v", widths, rep.FinalRanks, rep.Degraded, c.widths)
			}
			if !slices.Equal(lines, c.lines) {
				fail("recovery points restored from steps %v, want %v", lines, c.lines)
			}
			if !slices.Equal(dropped, c.dropped) {
				fail("dropped slots %v, want %v", dropped, c.dropped)
			}

			if (st.held == nil) != c.fromStore {
				t.Fatalf("the final generation holds fragments: %v, want %v", st.held != nil, !c.fromStore)
			}
			if st.held == nil {
				return
			}
			// Comparator: a clean run on the final grid resuming from the
			// same fragments, on stable storage and a fresh target.
			comp := st.next(st.grid, st.ranks, newSnapshotStore(st.ranks, nil, nil))
			comp.held = st.held
			tg, err := core.NewTarget(o.Platform, o.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, af, err := tg.Attempt(core.JobSpec{Ranks: st.ranks, RanksPerNode: o.RanksPerNode, App: comp}); err != nil || af != nil {
				t.Fatalf("comparator run failed: %v / %v", err, af)
			}
			sameFinalState(t, st, comp)
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

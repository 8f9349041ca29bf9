package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"heterohpc/internal/fault"
	"heterohpc/internal/obs"
)

// matrixScenario is one row group of the recovery characterisation matrix:
// a small supervised job, the fault plan it faces, and the policies that
// apply to it.
type matrixScenario struct {
	name     string
	o        FaultOptions
	policies []string
	// plan, when non-nil, builds an explicit plan from the clean run's
	// virtual horizon (fractions of it place events before the first
	// checkpoint, inside a step, or after the last one).
	plan func(cleanS float64) []fault.Event
}

var allPolicies = []string{PolicyRestart, PolicyShrink, PolicyMigrate}

// small is the shared job shape: 8 ranks, two per node, so four nodes.
func small(app, platform string, seed uint64) FaultOptions {
	return FaultOptions{
		App: app, Platform: platform, Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 4, Seed: seed,
	}
}

func with(o FaultOptions, f func(*FaultOptions)) FaultOptions {
	f(&o)
	return o
}

// storm64 is the shape on which the shrink path's journal depended on the
// host's schedule while mp had an any-source receive: eight nodes, three of
// them reclaimed in one wave, and deaths that land inside the survivors'
// set-up exchanges. The smaller rows never showed it. It is ROADMAP's
// reproducer (`heterobench faults -app rd -platform ec2 -ranks 64 -rpn 8 -n 8
// -steps 8 -storm 3 -seed 18`: 7 journals in 10 runs) with the per-rank mesh
// halved to n = 4: no two of the parent's runs at different GOMAXPROCS agreed
// here either, and a run costs a quarter as much — under -race, where the
// reproducer's own size takes 30 to 40 s a run, what keeps `go test -race
// ./...` inside its timeout.
var storm64 = matrixScenario{name: "rd-64-storm-wave3", policies: allPolicies,
	o: FaultOptions{App: "rd", Platform: "ec2", Ranks: 64, RanksPerNode: 8,
		PerRankN: 4, Steps: 8, SkipSteps: 1, Seed: 18, StormWave: 3}}

var recoveryMatrix = []matrixScenario{
	storm64,
	{name: "rd-crash", policies: allPolicies,
		o: with(small("rd", "puma", 77), func(o *FaultOptions) { o.Crashes = 1 })},
	{name: "ns-crash", policies: allPolicies,
		o: with(small("ns", "puma", 77), func(o *FaultOptions) { o.PerRankN, o.Steps, o.Crashes = 2, 3, 1 })},
	{name: "rd-preempt-window-fits", policies: allPolicies,
		o: with(small("rd", "ec2", 77), func(o *FaultOptions) { o.Preemptions = 1 })},
	{name: "ns-preempt-window-fits", policies: allPolicies,
		o: small("ns", "ec2", 5),
		plan: func(c float64) []fault.Event {
			return []fault.Event{{Kind: fault.KindPreempt, Node: 2, At: 0.9 * c, NoticeAt: 0.6 * c}}
		}},
	{name: "rd-preempt-window-too-short", policies: allPolicies,
		o: small("rd", "ec2", 77),
		plan: func(c float64) []fault.Event {
			return []fault.Event{{Kind: fault.KindPreempt, Node: 1, At: 0.8 * c, NoticeAt: 0.8*c - 1e-9}}
		}},
	{name: "rd-crash-before-first-checkpoint", policies: allPolicies,
		o: small("rd", "puma", 9),
		plan: func(c float64) []fault.Event {
			return []fault.Event{{Kind: fault.KindCrash, Node: 2, At: 0.3 * c}}
		}},
	{name: "rd-storm-wave3-cascade1-dry-market", policies: allPolicies,
		o: with(small("rd", "ec2", 12), func(o *FaultOptions) {
			o.Steps, o.StormWave, o.StormCascades, o.OnDemandSupply = 3, 3, 1, -1
		})},
	{name: "rd-storm-wave3-cascade1", policies: []string{PolicyRestart, PolicyMigrate},
		o: with(small("rd", "ec2", 12), func(o *FaultOptions) {
			o.Steps, o.StormWave, o.StormCascades = 3, 3, 1
		})},
	{name: "rd-capped-market-retries-regrow", policies: []string{PolicyMigrate},
		o: with(small("rd", "ec2", 21), func(o *FaultOptions) {
			o.OnDemandSupply, o.ProvisionRetries, o.Regrow = 1, 2, true
		}),
		plan: func(c float64) []fault.Event {
			return []fault.Event{
				{Kind: fault.KindCrash, Node: 1, At: 0.35 * c},
				{Kind: fault.KindPreempt, Node: 2, At: 0.9 * c, NoticeAt: 0.7 * c},
			}
		}},
	{name: "rd-regrow", policies: []string{PolicyMigrate},
		o: with(small("rd", "ec2", 21), func(o *FaultOptions) { o.Regrow = true }),
		plan: func(c float64) []fault.Event {
			return []fault.Event{
				{Kind: fault.KindCrash, Node: 1, At: 0.35 * c},
				{Kind: fault.KindPreempt, Node: 2, At: 0.9 * c, NoticeAt: 0.7 * c},
			}
		}},
	// Three crashes on a marketless platform: the two cold spares replace
	// the first two nodes and the third loss degrades the job to 8 ranks.
	{name: "rd-no-spares-degrade", policies: []string{PolicyRestart},
		o: FaultOptions{App: "rd", Platform: "puma", Ranks: 27, PerRankN: 3, Steps: 3,
			Seed: 5, Crashes: 3}},
	// An empty on-demand pool: restart finds spot and on-demand supply
	// exhausted and degrades; migrate, allowed no provisioning retry, falls
	// back when the storm's replacements cannot be bought.
	{name: "rd-dry-market-degrade", policies: []string{PolicyRestart},
		o: with(small("rd", "ec2", 12), func(o *FaultOptions) {
			o.Crashes, o.Preemptions, o.OnDemandSupply = 1, 1, -1
		})},
	{name: "rd-dry-market-degrade", policies: []string{PolicyMigrate},
		o: with(small("rd", "ec2", 12), func(o *FaultOptions) {
			o.Steps, o.StormWave, o.StormCascades, o.OnDemandSupply, o.ProvisionRetries = 3, 3, 1, -1, -1
		})},
	{name: "rd-two-nodes-shrink-to-one", policies: []string{PolicyShrink, PolicyMigrate},
		o: with(small("rd", "puma", 77), func(o *FaultOptions) { o.RanksPerNode = 4 }),
		plan: func(c float64) []fault.Event {
			return []fault.Event{{Kind: fault.KindCrash, Node: 1, At: 0.6 * c}}
		}},
	{name: "rd-two-nodes-then-none", policies: []string{PolicyMigrate},
		o: with(small("rd", "puma", 77), func(o *FaultOptions) { o.RanksPerNode = 4 }),
		plan: func(c float64) []fault.Event {
			return []fault.Event{
				{Kind: fault.KindCrash, Node: 1, At: 0.5 * c},
				{Kind: fault.KindCrash, Node: 0, At: 0.8 * c},
			}
		}},
	{name: "rd-27-crash-preempt-straggler", policies: allPolicies,
		o: FaultOptions{App: "rd", Platform: "ec2", Ranks: 27, RanksPerNode: 3, PerRankN: 3,
			Steps: 4, Seed: 11, Crashes: 1, Preemptions: 1, Degradations: 1}},
	{name: "rd-two-crashes-spares", policies: allPolicies,
		o: with(small("rd", "puma", 7), func(o *FaultOptions) { o.Crashes = 2 })},
}

// matrixRun executes one (scenario, policy) cell with a fresh observer and
// returns the recovery report text and the journal bytes.
func matrixRun(t *testing.T, sc matrixScenario, policy string, cleanS map[string]float64) (string, []byte) {
	t.Helper()
	o := sc.o
	o.Policy = policy
	if sc.plan != nil {
		// The clean horizon is a function of the job shape only; read it
		// once per scenario off the clean baseline, which the policies'
		// runs then reuse.
		c, ok := cleanS[sc.name]
		if !ok {
			_, clean, err := cleanJobOf(sc.o.withDefaults()).baseline()
			if err != nil {
				t.Fatalf("clean baseline: %v", err)
			}
			c = clean.virtualS
			cleanS[sc.name] = c
		}
		o.Plan = &fault.Plan{Seed: o.Seed, Events: sc.plan(c)}
	}
	rep, _, journal, err := runJournaled(o)
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	return FormatRecovery(rep), journal
}

// runJournaled runs o supervised, as RunSupervised does, under a fresh
// observer and returns the report, the final generation and the journal
// bytes.
func runJournaled(o FaultOptions) (*RecoveryReport, *generation, []byte, error) {
	if err := ValidateFaults(o); err != nil {
		return nil, nil, nil, err
	}
	o.Obs = obs.NewRun()
	s, err := newSuperSetup(o.withDefaults())
	if err != nil {
		return nil, nil, nil, err
	}
	rep, gen, err := supervise(s)
	if err != nil {
		return nil, nil, nil, err
	}
	var j bytes.Buffer
	err = o.Obs.WriteJournal(&j)
	return rep, gen, j.Bytes(), err
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestRecoveryMatrixMatchesParent pins the recovery engine's observable
// behaviour — the full FormatRecovery text and every journal byte — for a
// matrix of small scenarios × the policies that apply, against hashes
// captured on the tree before the three recovery loops were merged into
// one (see recovery_matrix_golden_test.go for provenance). A failing row
// means the engine changed what a supervised run does or reports: fix the
// engine, do not re-capture.
func TestRecoveryMatrixMatchesParent(t *testing.T) {
	cleanS := map[string]float64{}
	for _, sc := range recoveryMatrix {
		for _, policy := range sc.policies {
			key := sc.name + "/" + policy
			t.Run(key, func(t *testing.T) {
				text, journal := matrixRun(t, sc, policy, cleanS)
				got := [2]string{sha([]byte(text)), sha(journal)}
				want, ok := recoveryMatrixGolden[key]
				if !ok {
					t.Fatalf("no golden for this row; captured\n%q: {%q, %q},\n%s", key, got[0], got[1], text)
				}
				if got[0] != want[0] {
					t.Errorf("recovery report drifted:\ngot  %s\nwant %s\n%s", got[0], want[0], text)
				}
				if got[1] != want[1] {
					t.Errorf("journal drifted (%d bytes):\ngot  %s\nwant %s", len(journal), got[1], want[1])
				}
			})
		}
	}
}

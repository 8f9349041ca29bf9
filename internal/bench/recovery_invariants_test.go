package bench

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"heterohpc/internal/fault"
	"heterohpc/internal/trace"
)

// withoutKind drops the decisions of one kind.
func withoutKind(ds []trace.Decision, kind string) []trace.Decision {
	return slices.DeleteFunc(slices.Clone(ds), func(d trace.Decision) bool { return d.Kind == kind })
}

// TestMigrateFallbackIsShrinkStep pins that the migrate policy's reactive
// fallback IS PolicyShrink's step, not a copy of it: for plans of un-noticed
// crashes the ladder always answers "shrink", so the two policies' reports
// must agree in everything but the migrate-decision records and the
// Policy/Migrate fields.
func TestMigrateFallbackIsShrinkStep(t *testing.T) {
	cases := []struct {
		name string
		o    FaultOptions
		at   []float64 // crash times as fractions of the clean horizon; node i+1
	}{
		{"rd-one-crash", small("rd", "puma", 77), []float64{0.6}},
		{"rd-crash-on-a-market", small("rd", "ec2", 77), []float64{0.6}},
		{"rd-cold-then-warm", small("rd", "puma", 7), []float64{0.1, 0.7}},
		{"ns-one-crash", with(small("ns", "puma", 77), func(o *FaultOptions) { o.PerRankN, o.Steps = 2, 3 }), []float64{0.5}},
		{"rd-down-to-one-node", with(small("rd", "puma", 77), func(o *FaultOptions) { o.RanksPerNode = 4 }), []float64{0.6}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reps := map[string]*RecoveryReport{}
			for _, policy := range []string{PolicyShrink, PolicyMigrate} {
				o := c.o
				o.Policy = policy
				s, err := newSuperSetup(o.withDefaults())
				if err != nil {
					t.Fatal(err)
				}
				s.plan = &fault.Plan{Seed: o.Seed}
				for i, f := range c.at {
					s.plan.Events = append(s.plan.Events, fault.Event{Kind: fault.KindCrash, Node: i + 1, At: f * s.cleanS})
				}
				if reps[policy], _, err = supervise(s); err != nil {
					t.Fatal(err)
				}
			}
			sh, mg := reps[PolicyShrink], reps[PolicyMigrate]
			if mg.Migrate.FallbackShrinks != len(c.at) || mg.Migrate.Migrations != 0 {
				t.Fatalf("migrate stats %+v, want %d fallback shrink(s) and nothing else", mg.Migrate, len(c.at))
			}
			if !reflect.DeepEqual(sh.Shrink, mg.Shrink) {
				t.Errorf("shrink mechanics differ:\nshrink  %+v\nmigrate %+v", sh.Shrink, mg.Shrink)
			}
			if sh.WastedVirtualS != mg.WastedVirtualS || sh.MakespanS != mg.MakespanS || sh.FinalRanks != mg.FinalRanks ||
				sh.Attempts != mg.Attempts || sh.RecoveryCostUSD != mg.RecoveryCostUSD {
				t.Errorf("ledgers differ: shrink wasted %v makespan %v ranks %d attempts %d cost %v; migrate %v %v %d %d %v",
					sh.WastedVirtualS, sh.MakespanS, sh.FinalRanks, sh.Attempts, sh.RecoveryCostUSD,
					mg.WastedVirtualS, mg.MakespanS, mg.FinalRanks, mg.Attempts, mg.RecoveryCostUSD)
			}
			if got := withoutKind(mg.Decisions, "migrate-decision"); !reflect.DeepEqual(sh.Decisions, got) {
				t.Errorf("decisions differ beyond the migrate-decision records:\nshrink  %v\nmigrate %v", sh.Decisions, got)
			}
			if !reflect.DeepEqual(sh.Final.Metrics, mg.Final.Metrics) {
				t.Errorf("final metrics differ: %v vs %v", sh.Final.Metrics, mg.Final.Metrics)
			}
		})
	}
}

// maxErrRatio bounds a recovered run's max_err above, as a multiple of the
// clean run's. At these sizes max_err is the solver's tolerance more than
// the discretisation's error, and it moves with the decomposition: on the
// recovery matrix's and this sweep's shrink and migrate rows the ratio
// spans 0.944 to 2.364, and a clean run of the small job's mesh on 6 ranks
// reads 0.26 of the 8-rank run's. So there is no lower bound; a smaller
// problem solved in the submitted one's place shows in its mesh.
const maxErrRatio = 2.4

// checkRecovery holds a supervised run to the job it was given:
// whatever decomposition the final generation ran on, it solved the clean
// run's global mesh, to at most maxErrRatio times the clean run's max_err.
func checkRecovery(t *testing.T, o FaultOptions, rep *RecoveryReport, gen *generation, fail func(string, ...any)) {
	t.Helper()
	clean, _, err := weakGeneration(o.App, o.Ranks, o.PerRankN, o.Steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := [3]int{gen.m.Nx, gen.m.Ny, gen.m.Nz}, [3]int{clean.m.Nx, clean.m.Ny, clean.m.Nz}; got != want {
		fail("the final generation solved a %v mesh, the clean run a %v one", got, want)
	}
	if c, f := rep.Clean.Metrics["max_err"], rep.Final.Metrics["max_err"]; !(f <= maxErrRatio*c) {
		fail("max_err %v is %.3gx the clean run's %v", f, f/c, c)
	}
}

// verbRank orders the ladder: a recovery point may only move down it.
var verbRank = map[string]int{"migrate": 2, "shrink": 1, "restart": 0}

// TestRecoveryInvariantsOverSeededPlans sweeps seeded fault plans over all
// three policies — 0–2 crashes and 0–2 preemptions drawn from the seed on a
// small four-node job, then waves of three reclaimed nodes on a 64-rank,
// eight-node one, where deaths land inside the survivors' set-up, and one on
// a sold-out market, then one crash that leaves some ranks a step ahead —
// and asserts what the acceptance tests state one case at a time. Every
// assertion is on a schedule-independent quantity, and the whole journal is
// one: each plan runs twice and must write the same bytes.
func TestRecoveryInvariantsOverSeededPlans(t *testing.T) {
	var plans []FaultOptions
	for seed := uint64(1); seed <= 24; seed++ {
		o := small("rd", "ec2", seed)
		o.Crashes, o.Preemptions = int(seed%3), int(seed/3%3)
		plans = append(plans, o)
	}
	for _, seed := range []uint64{3, 7} {
		plans = append(plans, FaultOptions{App: "rd", Platform: "ec2", Ranks: 64, RanksPerNode: 8,
			PerRankN: 3, Steps: 4, Seed: seed, StormWave: 3})
	}
	// A wave on a sold-out market with no provisioning retry: migrate
	// evacuates, buys nothing and falls back to a shrink from the
	// evacuated line.
	plans = append(plans, with(small("rd", "ec2", 12), func(o *FaultOptions) {
		o.Steps, o.StormWave, o.StormCascades, o.OnDemandSupply, o.ProvisionRetries = 3, 3, 1, -1, -1
	}))
	// One crash of node 1 at 0.608 of the clean horizon, after the other
	// nodes saved step 2 and before node 1 did (the window is 0.605–0.611):
	// restart discards the step-2 blobs of the ranks that raced ahead and
	// resumes every rank from step 1.
	raced := small("rd", "ec2", 1)
	_, clean, err := cleanJobOf(raced.withDefaults()).baseline()
	if err != nil {
		t.Fatal(err)
	}
	raced.Plan = &fault.Plan{Seed: raced.Seed, Events: []fault.Event{{Kind: fault.KindCrash, Node: 1, At: 0.608 * clean.virtualS}}}
	plans = append(plans, raced)
	for _, o := range plans {
		seed := o.Seed
		for _, policy := range allPolicies {
			o.Policy = policy
			rep, gen, journal, err := runJournaled(o)
			if err != nil {
				t.Errorf("seed %d %s on %d ranks: %v", seed, policy, o.Ranks, err)
				continue
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Errorf("seed %d %s on %d ranks (%s): "+format, append([]any{seed, policy, o.Ranks, rep.Plan}, args...)...)
			}
			if _, _, again, err := runJournaled(o); err != nil || !bytes.Equal(journal, again) {
				fail("a second run wrote journal %s (error %v), the first %s", sha(again), err, sha(journal))
			}

			// Terminates within the attempt budget, one attempt per fatal
			// event at most plus the successful one.
			fatals := len(rep.Plan.Failures())
			if rep.Attempts < 1 || rep.Attempts > fatals+1 {
				fail("%d attempts for %d fatal event(s)", rep.Attempts, fatals)
			}
			if rep.Final == nil || rep.FinalRanks != rep.Final.Ranks || rep.Degraded != (rep.FinalRanks < rep.Ranks) {
				fail("final ranks %d, degraded %v, report %+v", rep.FinalRanks, rep.Degraded, rep.Final)
			}

			// Per recovery point (the decisions between two failures): at most
			// one restore, and the ladder only moves down — migrate, then
			// shrink, then restart, never back up.
			restores, verb, completes := 0, len(verbRank), 0
			for _, d := range rep.Decisions {
				switch d.Kind {
				case "failure":
					restores, verb = 0, len(verbRank)
				case "restore":
					if restores++; restores > 1 {
						fail("a recovery point restored twice: %v", rep.Decisions)
					}
				case "migrate-decision":
					v := verbRank[strings.Fields(d.Detail)[0]]
					if v > verb {
						fail("ladder moved back up at %v", d)
					}
					verb = v
				case "complete":
					completes++
				}
			}
			if o.Plan == raced.Plan && policy == PolicyRestart && !slices.ContainsFunc(rep.Decisions, func(d trace.Decision) bool {
				return d.Kind == "restore" && strings.Contains(d.Detail, "raced ahead")
			}) {
				fail("no restore discarded the blobs of ranks that raced ahead: %v", rep.Decisions)
			}
			if completes != 1 || rep.Decisions[len(rep.Decisions)-1].Kind != "complete" {
				fail("decision log does not end in exactly one complete: %v", rep.Decisions)
			}
			// One re-formation per recovery point, each losing at least a node.
			if st := rep.Shrink; st != nil && (st.Shrinks > fatals || len(st.DeadNodes) < st.Shrinks) {
				fail("%d shrinks for nodes %v under %d fatal event(s)", st.Shrinks, st.DeadNodes, fatals)
			}

			// The ledger: nothing is wasted below zero, overall or at any
			// restore.
			for _, d := range rep.Decisions {
				if _, after, ok := strings.Cut(d.Detail, "(rollback "); ok && strings.HasPrefix(after, "-") {
					fail("negative rollback at %v", d)
				}
			}
			if rep.WastedVirtualS < 0 || rep.BackoffS < 0 || rep.BackoffS > rep.WastedVirtualS || rep.RecoveryCostUSD < 0 {
				fail("ledger: wasted %v, backoff %v, cost %v", rep.WastedVirtualS, rep.BackoffS, rep.RecoveryCostUSD)
			}
			if fatals == 0 && (rep.WastedVirtualS != 0 || rep.Attempts != 1) {
				fail("a fault-free plan cost %vs over %d attempts", rep.WastedVirtualS, rep.Attempts)
			}
			if rep.MakespanS < rep.FinalVirtualS {
				fail("makespan %v below the final attempt's own %v", rep.MakespanS, rep.FinalVirtualS)
			}

			// The solution. A run that never left the submitted decomposition
			// — restart at full width, or nothing but full-width migrations —
			// must land on the clean run's exact bits; one that computed on
			// another decomposition sums in another order, and must still
			// solve the problem.
			sameDecomposition := !slices.ContainsFunc(rep.Decisions, func(d trace.Decision) bool {
				return d.Kind == "shrink" || d.Kind == "degrade"
			})
			for _, k := range []string{"max_err", "l2_err"} {
				clean, final := rep.Clean.Metrics[k], rep.Final.Metrics[k]
				switch {
				case sameDecomposition && math.Float64bits(clean) != math.Float64bits(final):
					fail("%s = %x, the clean run's is %x — not bit-identical", k, math.Float64bits(final), math.Float64bits(clean))
				case math.IsNaN(final) || final <= 0 || final > 1e-3:
					fail("%s = %v", k, final)
				}
			}
			checkRecovery(t, o, rep, gen, fail)
		}
	}
}

package bench

import (
	"fmt"
	"strings"
	"sync"

	"heterohpc/internal/core"
	"heterohpc/internal/fault"
	"heterohpc/internal/obs"
	"heterohpc/internal/sched"
	"heterohpc/internal/spot"
	"heterohpc/internal/trace"
)

// Recovery policies for RunSupervised.
const (
	// PolicyRestart is checkpoint-restart: on node loss, re-provision,
	// restore the last common checkpoint and rerun the whole job shape.
	PolicyRestart = "restart"
	// PolicyShrink is ULFM-style shrink-and-continue: survivors agree on
	// the dead, the world shrinks, state redistributes from diskless buddy
	// copies, and time-stepping resumes mid-run on the survivor count.
	PolicyShrink = "shrink-continue"
	// PolicyMigrate is proactive notice-window migration: on a spot
	// interruption notice the supervisor drains at the notice, evacuates the
	// doomed node's checkpoint shards to their buddies inside the window,
	// provisions a replacement, grows the world back to full width and
	// continues — falling back to shrink-continue (or restart) when the
	// window is too short, capacity is unavailable, or the failure carried
	// no notice.
	PolicyMigrate = "migrate"
)

// FaultOptions configures a supervised run under fault injection.
type FaultOptions struct {
	// App is "rd" or "ns".
	App string
	// Platform names the target.
	Platform string
	// Ranks is the submitted process count (at least one, and cubic for the
	// weak-scaling applications).
	Ranks int
	// RanksPerNode underfills nodes (0: pack to the platform's cores per
	// node). Shrink-and-continue needs at least two nodes, so small jobs on
	// fat-node platforms set this to spread ranks out.
	RanksPerNode int
	// Policy selects the recovery strategy: PolicyRestart, PolicyShrink or
	// PolicyMigrate. Empty names none: RunSupervised restarts, and
	// CompareRecovery, which ignores the field, runs all three.
	Policy string
	// PerRankN is the per-process mesh edge (default 10, as in Options).
	PerRankN int
	// Steps is the number of BDF2 steps (default 4, so at least one
	// checkpoint exists before mid-run failures).
	Steps int
	// SkipSteps discards initial iterations from averaged statistics.
	SkipSteps int
	// Seed drives the scheduler, the fault plan, the backoff jitter and the
	// replacement market. Equal seeds give equal recoveries.
	Seed uint64
	// Plan overrides fault-plan generation. When nil, a plan with Crashes /
	// Preemptions / Degradations events is drawn over the clean run's
	// virtual duration.
	Plan *fault.Plan
	// Crashes, Preemptions and Degradations size the generated plan.
	Crashes, Preemptions, Degradations int
	// StormWave, when positive, replaces the independent generated plan
	// with a correlated fault storm (fault.NewStorm): a reclamation wave of
	// StormWave simultaneous-notice preemptions, StormCascades follow-up
	// preemptions hitting wave slots mid-recovery, and StormBursts
	// correlated straggler windows. Ignored when Plan is set.
	StormWave, StormCascades, StormBursts int
	// OnDemandSupply caps the replacement market's on-demand top-up pool,
	// making AcquireMix exhaustion reachable: the autoscaler then retries
	// with backoff under PolicyMigrate, and PolicyRestart degrades. The
	// zero value means unlimited (the paper could always "add
	// regularly-priced hosts"); pass any negative value for an empty pool.
	OnDemandSupply int
	// ProvisionRetries bounds the autoscaler's backoff retries after an
	// exhausted acquisition under PolicyMigrate (default 4; negative: no
	// retries — a single exhausted attempt falls back to shrink).
	// PolicyRestart never retries: it degrades at once.
	ProvisionRetries int
	// Regrow lets the migrate-policy autoscaler re-provision width a
	// previous degradation lost: a later recovery point also acquires the
	// deficit nodes and grows the world back toward the submitted Ranks,
	// charging each deficit joiner the preconditioned-image instantiation
	// of the provisioning planner.
	Regrow bool
	// Obs, when non-nil, journals every supervised attempt, the replacement
	// market's ticks and notices, and the supervisor's decisions. The clean
	// baseline run stays unobserved so the journal covers only the faulted
	// job; it runs once per clean input, on the supervised target, and
	// later calls with equal inputs reuse it (cleanJob.baseline).
	Obs *obs.Run

	// ckptTap, when non-nil, mirrors every checkpoint the faulted job's
	// ranks write under any policy — (rank, step, world width, serialised
	// blob) — to the replay anchor collector. The clean baseline writes no
	// checkpoints, so it is never tapped, matching the journal's coverage.
	// Unexported: only ReplayFromCheckpoint sets it (see replay.go).
	ckptTap func(rank, step, width int, blob []byte)
}

// ValidateFaults rejects a scenario no supervised run can honour: a rank
// count below one, a negative ranks-per-node or event count, a storm of one
// notice, storm cascades or bursts without a wave, Regrow under a named
// policy that never regrows, and an unknown application or policy. It reads
// the options as given, before any default, and names the heterobench flags,
// so the CLI, RunSupervised, CompareRecovery and ReplayFromCheckpoint refuse
// a scenario with the same words.
func ValidateFaults(o FaultOptions) error {
	if o.Ranks < 1 {
		return fmt.Errorf("-ranks %d: a supervised run needs at least one rank", o.Ranks)
	}
	if o.RanksPerNode < 0 {
		return fmt.Errorf("-rpn %d is negative (use 0 to pack by cores)", o.RanksPerNode)
	}
	// 0 asks for the default of each; a negative size has no meaning.
	for _, f := range []struct {
		name string
		v    int
	}{{"-n", o.PerRankN}, {"-steps", o.Steps}, {"-skip", o.SkipSteps}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d is negative", f.name, f.v)
		}
	}
	if o.Crashes < 0 || o.Preemptions < 0 || o.Degradations < 0 {
		return fmt.Errorf("fault counts must be >= 0, got -crashes %d -preempts %d -degrades %d",
			o.Crashes, o.Preemptions, o.Degradations)
	}
	if o.StormWave < 0 {
		return fmt.Errorf("-storm %d is negative (a storm wave needs >= 2 correlated notices)", o.StormWave)
	}
	if o.StormWave == 1 {
		return fmt.Errorf("-storm 1 is a lone preemption, not a storm; use -preempts 1 instead")
	}
	if o.StormCascades < 0 || o.StormBursts < 0 {
		return fmt.Errorf("storm event counts must be >= 0, got -cascades %d -bursts %d",
			o.StormCascades, o.StormBursts)
	}
	if o.StormWave == 0 && (o.StormCascades > 0 || o.StormBursts > 0) {
		return fmt.Errorf("-cascades/-bursts correlate events with a storm wave; add -storm N (>= 2)")
	}
	if o.Regrow && o.Policy != "" && o.Policy != PolicyMigrate {
		return fmt.Errorf("-regrow is the migrate autoscaler's knob; use -policy %s, or compare the policies", PolicyMigrate)
	}
	if o.App != "rd" && o.App != "ns" {
		return fmt.Errorf("unknown app %q (want rd or ns)", o.App)
	}
	switch o.Policy {
	case "", PolicyRestart, PolicyShrink, PolicyMigrate:
		return nil
	}
	return fmt.Errorf("unknown policy %q (want %s, %s or %s)", o.Policy, PolicyRestart, PolicyShrink, PolicyMigrate)
}

func (o FaultOptions) withDefaults() FaultOptions {
	if o.Platform == "" {
		o.Platform = "ec2"
	}
	if o.Policy == "" {
		o.Policy = PolicyRestart
	}
	if o.PerRankN == 0 {
		o.PerRankN = 10
	}
	if o.Steps == 0 {
		o.Steps = 4
	}
	if o.Seed == 0 {
		o.Seed = 2012
	}
	if o.ProvisionRetries == 0 {
		o.ProvisionRetries = 4
	}
	return o
}

// RecoveryReport is the outcome of a supervised run: the recovered result
// next to the clean baseline, with the price of recovery itemised.
type RecoveryReport struct {
	Platform, App string
	// Policy is the recovery strategy the run used.
	Policy string
	// Ranks is the submitted size; FinalRanks what the successful attempt
	// ran with (smaller after graceful degradation).
	Ranks, FinalRanks int
	// Attempts counts executions, including the successful one.
	Attempts int
	// Degraded is true when the job finished on fewer ranks than submitted.
	Degraded bool
	// Plan is the injected failure schedule.
	Plan *fault.Plan
	// Clean is the no-fault baseline report; Final the recovered run's.
	Clean, Final *core.Report
	// CleanVirtualS and FinalVirtualS are the baseline and final-attempt
	// virtual durations (max over ranks).
	CleanVirtualS, FinalVirtualS float64
	// WastedVirtualS is the recovery overhead in virtual seconds: time
	// consumed by failed attempts (at their scheduled failure times) plus
	// backoff delays.
	WastedVirtualS float64
	// BackoffS is the backoff share of WastedVirtualS.
	BackoffS float64
	// RecoveryCostUSD prices the overhead: failed attempts at the
	// platform's billing plus the replacement-capacity premium over the
	// typical spot rate.
	RecoveryCostUSD float64
	// MakespanS is the job's end-to-end virtual time including recovery:
	// wasted time plus the final attempt for restart, the furthest survivor
	// clock for shrink-and-continue (whose clocks carry across the shrink).
	MakespanS float64
	// Shrink itemises the shrink-and-continue mechanics (nil under
	// PolicyRestart; under PolicyMigrate it covers the shared
	// agree/redistribute/mirror machinery).
	Shrink *ShrinkStats
	// Migrate itemises the proactive notice-window migrations (nil unless
	// the run used PolicyMigrate).
	Migrate *MigrateStats
	// Decisions is the supervisor's audit log.
	Decisions []trace.Decision
}

// ShrinkStats itemises what a shrink-and-continue recovery did and what
// the protection cost.
type ShrinkStats struct {
	// Shrinks counts world shrinks (one per recovered node loss).
	Shrinks int
	// DeadNodes lists the lost nodes in original numbering, in loss order.
	DeadNodes []int
	// Survivors is the final rank count; Grid its block decomposition.
	Survivors int
	Grid      [3]int
	// RestoreStep is the common checkpoint step the last recovery resumed
	// from (0 when the survivors had to restart the stepping from scratch).
	RestoreStep int
	// AgreeS and RedistributeS are the virtual seconds the agreement
	// collective and the state redistribution cost (max over ranks, summed
	// over shrinks).
	AgreeS, RedistributeS float64
	// BuddyOverheadS is the virtual time the buddy mirroring added to the
	// critical path (max per-rank overhead, summed over generations);
	// BuddyBytes the total bytes mirrored.
	BuddyOverheadS float64
	BuddyBytes     int64
	// RevokedMsgs sums mp.Reformed.Revoked over the re-formations: the
	// pending messages addressed to or sent by a dead rank. Messages pending
	// between two survivors are dropped with the old world and not counted.
	RevokedMsgs int
	// PartitionImbalance is the survivor decomposition's element imbalance
	// (max/avg; 0 when not evaluated).
	PartitionImbalance float64
}

// virtualDuration is the job's virtual makespan: the largest per-rank sum
// of step times.
func virtualDuration(rep *core.Report) float64 {
	var max float64
	for _, steps := range rep.PerRankSteps {
		var sum float64
		for _, pt := range steps {
			sum += pt.Total()
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// superSetup is the preamble every policy shares: the clean
// baseline, the supervised target, the effective placement, and the fault
// plan drawn over the baseline's virtual horizon.
type superSetup struct {
	o      FaultOptions
	tg     *core.Target
	clean  *core.Report
	cleanS float64
	plan   *fault.Plan
	nodes  int
	cpn    int // effective ranks per node
	mem    float64
}

// cleanJob is exactly what a supervised job's clean baseline depends on:
// the target (platform and scheduler seed) and the weak-scaling job run on
// it. The baseline is a pure function of these fields, and baseline builds
// the target and the job from them alone, so an input cannot reach the
// clean run without being part of the memo's key.
type cleanJob struct {
	Platform                   string
	Seed                       uint64
	App                        string
	Ranks, RanksPerNode        int
	PerRankN, Steps, SkipSteps int
}

func cleanJobOf(o FaultOptions) cleanJob {
	return cleanJob{
		Platform: o.Platform, Seed: o.Seed, App: o.App,
		Ranks: o.Ranks, RanksPerNode: o.RanksPerNode,
		PerRankN: o.PerRankN, Steps: o.Steps, SkipSteps: o.SkipSteps,
	}
}

// cleanBaseline is a finished clean run: the comparison column, its virtual
// duration (the horizon fault plans are drawn over) and the per-rank memory
// its job asked for.
type cleanBaseline struct {
	rep      *core.Report
	virtualS float64
	memGB    float64
}

// lastClean is the memo of clean baselines, bounded at one entry: every
// caller that compares policies on one job (CompareRecovery, the CLI's
// compare, the benchmark's faults-storm) runs them back to back, so the
// last baseline is the one the next call asks for.
var lastClean struct {
	sync.Mutex
	job  cleanJob
	base *cleanBaseline
}

// baseline returns j's clean baseline and a target for the supervised run.
// The baseline runs once per key: a call whose key matches the kept one
// reuses it on a fresh target, and its report is shared, so every user
// only reads it. On a miss the clean job runs on the supervised target
// itself, unobserved and with no store (it writes no checkpoints), and the
// target then gets a fresh scheduler stream at the same seed — the
// scheduler is its only state a job advances — so the supervised attempts
// see what a fresh target would, while the first attempt adopts the clean
// job's interned shapes and frozen values (host-only; see mp.InternTable).
func (j cleanJob) baseline() (*core.Target, *cleanBaseline, error) {
	tg, err := core.NewTarget(j.Platform, j.Seed)
	if err != nil {
		return nil, nil, err
	}
	lastClean.Lock()
	b := lastClean.base
	hit := b != nil && lastClean.job == j
	lastClean.Unlock()
	if hit {
		return tg, b, nil
	}
	app, mem, err := weakGeneration(j.App, j.Ranks, j.PerRankN, j.Steps, nil)
	if err != nil {
		return nil, nil, err
	}
	rep, err := tg.Run(core.JobSpec{
		Ranks: j.Ranks, RanksPerNode: j.RanksPerNode, App: app,
		SkipSteps: j.SkipSteps, MemPerRankGB: mem,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: clean baseline failed: %w", err)
	}
	tg.Sched = sched.New(tg.Platform, j.Seed)
	b = &cleanBaseline{rep: rep, virtualS: virtualDuration(rep), memGB: mem}
	lastClean.Lock()
	lastClean.job, lastClean.base = j, b
	lastClean.Unlock()
	return tg, b, nil
}

// newSuperSetup prepares a supervised run of defaulted options: the clean
// baseline, run once per clean input on the supervised target (or reused
// from the last call with equal inputs), the placement, and the fault plan.
func newSuperSetup(o FaultOptions) (*superSetup, error) {
	tg, clean, err := cleanJobOf(o).baseline()
	if err != nil {
		return nil, err
	}
	cpn := tg.Platform.CoresPerNode()
	if o.RanksPerNode > 0 && o.RanksPerNode < cpn {
		cpn = o.RanksPerNode
	}
	nodes := (o.Ranks + cpn - 1) / cpn

	plan := o.Plan
	if plan == nil {
		if o.StormWave > 0 {
			plan, err = fault.NewStorm(fault.StormSpec{
				Seed: o.Seed, Nodes: nodes, Horizon: clean.virtualS,
				WaveSize: o.StormWave, Cascades: o.StormCascades,
				StragglerBursts: o.StormBursts,
			})
		} else {
			plan, err = fault.New(fault.Spec{
				Seed: o.Seed, Nodes: nodes, Horizon: clean.virtualS,
				Crashes: o.Crashes, Preemptions: o.Preemptions, Degradations: o.Degradations,
			})
		}
		if err != nil {
			return nil, err
		}
	}
	return &superSetup{
		o: o, tg: tg, clean: clean.rep, cleanS: clean.virtualS,
		plan: plan, nodes: nodes, cpn: cpn, mem: clean.memGB,
	}, nil
}

// newReplacementMarket builds the replacement spot market the restart and
// migrate verbs buy capacity from: nil on marketless platforms, seeded at Seed+2,
// with the on-demand pool capped when OnDemandSupply asks for it (the
// capped pool is what makes acquisition exhaustion — and therefore the
// autoscaler's backoff path — reachable).
func (s *superSetup) newReplacementMarket() *spot.Market {
	p := s.tg.Platform
	if p.SpotPerNodeHour <= 0 {
		return nil
	}
	market := spot.NewMarket(s.o.Seed+2, p.CostPerNodeHour)
	if s.o.OnDemandSupply != 0 {
		n := s.o.OnDemandSupply
		if n < 0 {
			n = 0
		}
		market.LimitOnDemand(n)
	}
	market.Observe(s.o.Obs)
	return market
}

// RunSupervised executes a weak-scaling job under a fault plan with the
// recovery engine (engine.go): classify the failure, let the policy decide,
// and restart from stable storage, shrink onto the survivors, or migrate
// inside the notice window — degrading to fewer ranks when no replacement is
// available. Everything is deterministic for equal seeds. Options that
// ValidateFaults refuses fail before anything runs.
func RunSupervised(o FaultOptions) (*RecoveryReport, error) {
	if err := ValidateFaults(o); err != nil {
		return nil, err
	}
	return runSupervised(o.withDefaults())
}

// runSupervised is RunSupervised on options already validated and defaulted.
func runSupervised(o FaultOptions) (*RecoveryReport, error) {
	s, err := newSuperSetup(o)
	if err != nil {
		return nil, err
	}
	rep, _, err := supervise(s)
	return rep, err
}

// supervise selects the policy — a decide function, whether to drain at the
// notice, and where checkpoints live — and runs the engine. It also returns
// the final generation, whose held fragments and final field the package
// tests compare bit for bit.
func supervise(s *superSetup) (*RecoveryReport, *generation, error) {
	e := newEngine(s)
	switch s.o.Policy {
	case PolicyRestart:
		e.stable = true
		e.decide = func(*recoveryPoint) string { return "restart" }
	case PolicyShrink:
		e.decide = func(*recoveryPoint) string { return "shrink" }
		e.rep.Shrink = &e.sh
	default: // PolicyMigrate: ValidateFaults admits no other
		e.drain = true
		e.decide = e.ladder
		e.rep.Shrink, e.rep.Migrate = &e.sh, &e.mg
	}
	if !e.stable && s.nodes < 2 {
		return nil, nil, fmt.Errorf("bench: policy %s keeps checkpoints in node memory and needs at least 2 nodes for buddy copies (placement has %d); lower RanksPerNode or raise Ranks",
			s.o.Policy, s.nodes)
	}
	return e.run()
}

// RecoveryComparison pits the three policies against the identical fault
// plan.
type RecoveryComparison struct {
	Restart, Shrink, Migrate *RecoveryReport
}

// CompareRecovery runs the same seeded fault plan under checkpoint-restart,
// shrink-and-continue and proactive migration, so the reports differ only
// by policy. The restart run draws the plan; the other two replay it
// verbatim. o.Policy is ignored, so Regrow is accepted: it reaches the
// migrate run.
func CompareRecovery(o FaultOptions) (*RecoveryComparison, error) {
	o.Policy = ""
	if err := ValidateFaults(o); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	run := func(label, policy string, plan *fault.Plan) (*RecoveryReport, error) {
		po := o
		po.Policy, po.Plan = policy, plan
		rep, err := runSupervised(po)
		if err != nil {
			return nil, fmt.Errorf("bench: %s policy: %w", label, err)
		}
		return rep, nil
	}
	restart, err := run("restart", PolicyRestart, o.Plan)
	if err != nil {
		return nil, err
	}
	shrink, err := run("shrink", PolicyShrink, restart.Plan)
	if err != nil {
		return nil, err
	}
	migrate, err := run("migrate", PolicyMigrate, restart.Plan)
	if err != nil {
		return nil, err
	}
	return &RecoveryComparison{Restart: restart, Shrink: shrink, Migrate: migrate}, nil
}

// FormatRecovery renders a supervised run: the decision log, then the
// recovered numbers next to the clean baseline with the overhead itemised.
func FormatRecovery(rep *RecoveryReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injected %s on %s (%d ranks, policy %s)\n",
		strings.ToUpper(rep.App), rep.Platform, rep.Ranks, rep.Policy)
	fmt.Fprintf(&b, "%s\n\nsupervisor decisions:\n", rep.Plan)
	b.WriteString(trace.FormatDecisions(rep.Decisions))
	b.WriteString("\n\n")

	errKey := errKeyOf(rep.App)
	fmt.Fprintf(&b, "%-24s %14s %14s\n", "", "clean", "recovered")
	fmt.Fprintf(&b, "%-24s %14d %14d\n", "ranks", rep.Clean.Ranks, rep.Final.Ranks)
	fmt.Fprintf(&b, "%-24s %14d %14d\n", "attempts", 1, rep.Attempts)
	fmt.Fprintf(&b, "%-24s %14.3f %14.3f\n", "virtual duration (s)", rep.CleanVirtualS, rep.FinalVirtualS)
	fmt.Fprintf(&b, "%-24s %14.2e %14.2e\n", errKey, rep.Clean.Metrics[errKey], rep.Final.Metrics[errKey])
	fmt.Fprintf(&b, "%-24s %14s %14.3f\n", "wasted virtual (s)", "--", rep.WastedVirtualS)
	fmt.Fprintf(&b, "%-24s %14s %14.3f\n", "  of which backoff (s)", "--", rep.BackoffS)
	fmt.Fprintf(&b, "%-24s %14.3f %14.3f\n", "makespan (s)", rep.CleanVirtualS, rep.MakespanS)
	fmt.Fprintf(&b, "%-24s %14s %14.5f\n", "recovery cost (USD)", "--", rep.RecoveryCostUSD)
	if st := rep.Shrink; st != nil && st.Shrinks > 0 {
		fmt.Fprintf(&b, "\nshrink-and-continue mechanics:\n")
		fmt.Fprintf(&b, "  shrinks %d (node(s) %v lost); %d survivor ranks on grid %dx%dx%d, imbalance %.3f\n",
			st.Shrinks, st.DeadNodes, st.Survivors, st.Grid[0], st.Grid[1], st.Grid[2], st.PartitionImbalance)
		fmt.Fprintf(&b, "  resumed after step %d; agreement %.4fs, redistribution %.4fs, %d message(s) revoked\n",
			st.RestoreStep, st.AgreeS, st.RedistributeS, st.RevokedMsgs)
		fmt.Fprintf(&b, "  buddy mirroring: %.4fs critical-path overhead, %d bytes exchanged\n",
			st.BuddyOverheadS, st.BuddyBytes)
	}
	if mg := rep.Migrate; mg != nil {
		fmt.Fprintf(&b, "\nproactive migration mechanics:\n")
		fmt.Fprintf(&b, "  %d migration(s) (node(s) %v replaced), %d fallback shrink(s), %d fallback restart(s)\n",
			mg.Migrations, mg.ReplacedNodes, mg.FallbackShrinks, mg.FallbackRestarts)
		fmt.Fprintf(&b, "  evacuated %d shard(s), %d bytes, %.4fs of priced copy inside %.1fs of notice window(s)\n",
			mg.EvacuatedBlobs, mg.CopyBytes, mg.CopyS, mg.WindowS)
		if mg.Migrations > 0 {
			fmt.Fprintf(&b, "  last migration resumed after step %d at the restored width\n", mg.RestoreStep)
		}
		if mg.Coalesced > 0 || mg.Replans > 0 {
			fmt.Fprintf(&b, "  storm arbiter: %d notice(s) coalesced into earlier recovery points, %d cascade re-plan(s)\n",
				mg.Coalesced, mg.Replans)
		}
		if mg.ProvisionRetries > 0 {
			fmt.Fprintf(&b, "  autoscaler: %d exhausted-market backoff retry(ies) while re-provisioning\n",
				mg.ProvisionRetries)
		}
		if mg.RegrownNodes > 0 {
			fmt.Fprintf(&b, "  autoscaler re-grew %d deficit node(s) back toward the submitted width\n",
				mg.RegrownNodes)
		}
	}
	if rep.Degraded {
		fmt.Fprintf(&b, "\njob degraded gracefully: finished on %d of %d submitted ranks\n",
			rep.FinalRanks, rep.Ranks)
	}
	return b.String()
}

// FormatRecoveryComparison renders the three policies' reports side by
// side: the same fault plan, the same application, only the recovery
// differs.
func FormatRecoveryComparison(c *RecoveryComparison) string {
	r, s, m := c.Restart, c.Shrink, c.Migrate
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery-policy comparison: %s on %s (%d ranks)\n",
		strings.ToUpper(r.App), r.Platform, r.Ranks)
	fmt.Fprintf(&b, "%s\n\n", r.Plan)
	errKey := errKeyOf(r.App)
	row := func(label, fmtStr string, vs ...any) {
		fmt.Fprintf(&b, "%-26s", label)
		for _, v := range vs {
			fmt.Fprintf(&b, " "+fmtStr, v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-26s %14s %14s %14s\n", "", PolicyRestart, PolicyShrink, PolicyMigrate)
	row("final ranks", "%14d", r.FinalRanks, s.FinalRanks, m.FinalRanks)
	row("attempts", "%14d", r.Attempts, s.Attempts, m.Attempts)
	row("wasted virtual (s)", "%14.3f", r.WastedVirtualS, s.WastedVirtualS, m.WastedVirtualS)
	row("makespan (s)", "%14.3f", r.MakespanS, s.MakespanS, m.MakespanS)
	row("recovery cost (USD)", "%14.5f", r.RecoveryCostUSD, s.RecoveryCostUSD, m.RecoveryCostUSD)
	row(errKey, "%14.2e", r.Final.Metrics[errKey], s.Final.Metrics[errKey], m.Final.Metrics[errKey])
	if st := s.Shrink; st != nil {
		fmt.Fprintf(&b, "\nshrink path paid %.4fs of buddy mirroring (%d bytes) and %.4fs of agreement+redistribution\nto avoid %.3fs of restart waste.\n",
			st.BuddyOverheadS, st.BuddyBytes, st.AgreeS+st.RedistributeS,
			r.WastedVirtualS-s.WastedVirtualS)
	}
	if mg := m.Migrate; mg != nil {
		if mg.Migrations > 0 {
			fmt.Fprintf(&b, "\nmigrate path copied %d shard(s) (%d bytes, %.4fs) inside the notice window(s)\nand finished on %d ranks against shrink's %d, wasting %.3fs less than shrink.\n",
				mg.EvacuatedBlobs, mg.CopyBytes, mg.CopyS,
				m.FinalRanks, s.FinalRanks, s.WastedVirtualS-m.WastedVirtualS)
		} else {
			fmt.Fprintf(&b, "\nmigrate path found no usable notice window and fell back to reactive recovery\n(%d shrink(s), %d restart(s)), matching shrink-continue.\n",
				mg.FallbackShrinks, mg.FallbackRestarts)
		}
	}
	return b.String()
}

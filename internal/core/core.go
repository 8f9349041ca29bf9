// Package core is the façade of the library: it binds a platform model
// (hardware + interconnect), its scheduler and its billing into a Target on
// which parallel applications run, and aggregates per-rank virtual-time
// profiles into the per-iteration statistics the paper reports ("the
// average times of assembly, preconditioning, and solver phases with the
// total maximal iteration time", §VII-A).
//
// A Run executes the application for real — every rank assembles, solves
// and communicates — while the virtual clocks translate the observed
// operation counts and message sizes into seconds on the modelled platform.
package core

import (
	"fmt"

	"heterohpc/internal/cost"
	"heterohpc/internal/fault"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/platform"
	"heterohpc/internal/sched"
	"heterohpc/internal/vclock"
)

// App is a parallel application runnable on a Target. Run executes the
// SPMD body of one rank and reports its per-step phase breakdown plus
// scalar metrics (error norms, iteration counts); metrics must be globally
// consistent (identical on all ranks).
type App interface {
	Name() string
	Run(r *mp.Rank) (steps []vclock.PhaseTimes, metrics map[string]float64, err error)
}

// Target is a platform ready to execute jobs, one at a time.
type Target struct {
	Platform *platform.Platform
	Sched    *sched.Scheduler
	Billing  cost.Billing

	// interns is the intern table of every world the target's jobs run in
	// (see mp.InternTable): a sweep's points and a supervisor's attempts
	// adopt the shapes and frozen values the job before them built. It is
	// host-only, so a job's report, journal and metrics are those it would
	// give on a fresh target.
	interns mp.InternTable
}

// NewTarget builds the named platform's target with a deterministic
// scheduler stream.
func NewTarget(name string, seed uint64) (*Target, error) {
	p, err := platform.Get(name)
	if err != nil {
		return nil, err
	}
	return NewTargetFromPlatform(p, seed)
}

// NewTargetFromPlatform builds a target from an explicit platform
// description — the hook for counterfactual ablations ("puma with
// InfiniBand") that modify a copy of a catalog platform.
func NewTargetFromPlatform(p *platform.Platform, seed uint64) (*Target, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Target{
		Platform: p,
		Sched:    sched.New(p, seed),
		Billing:  cost.ForPlatform(p),
	}, nil
}

// JobSpec describes one submission.
type JobSpec struct {
	// Ranks is the MPI process count.
	Ranks int
	// App is the application to execute.
	App App
	// SkipSteps discards the first k time steps from the averaged
	// statistics, insulating them from startup artefacts as the paper does
	// ("we discarded timings from the first 5 iterations").
	SkipSteps int
	// GroupOfNode optionally assigns each node to an EC2 placement group
	// (nil = single group). Length must equal the node count.
	GroupOfNode []int
	// MemPerRankGB is the job's working set per rank, checked against the
	// platform's RAM per core.
	MemPerRankGB float64
	// RanksPerNode overrides the default dense packing (CoresPerNode ranks
	// per node). Underfilling nodes buys each rank a larger NIC share at a
	// higher whole-node cost — the trade-off behind the paper's observation
	// that EC2's 16-core nodes need "notably fewer hosts". Zero means dense.
	RanksPerNode int
	// Faults are injected failure events armed on the world before the
	// application starts (see internal/fault). Events targeting nodes
	// beyond the job's topology are ignored.
	Faults []fault.Event
	// Obs, when non-nil, attaches an observability sink to the run's world:
	// per-rank journals of phase transitions, solves, halo traffic and
	// checkpoints, plus the metrics registry. Nil (the default) records
	// nothing and adds nothing to the hot paths.
	Obs *obs.Run
}

// IterStats are the paper's per-iteration statistics, averaged over the
// kept time steps.
type IterStats struct {
	// AvgAssembly/AvgPrecond/AvgSolve/AvgOther are rank-averaged phase
	// times per iteration (seconds).
	AvgAssembly float64
	AvgPrecond  float64
	AvgSolve    float64
	AvgOther    float64
	// MaxTotal is the total maximal iteration time: max over ranks,
	// averaged over kept steps.
	MaxTotal float64
	// CommFraction is the communication share of the rank-summed time.
	CommFraction float64
	// Steps is the number of kept iterations.
	Steps int
}

// Report is the outcome of one job.
type Report struct {
	Platform string
	App      string
	Ranks    int
	Nodes    int
	// QueueWaitS is the sampled scheduler wait before execution (seconds).
	QueueWaitS float64
	Iter       IterStats
	// CostPerIter prices one iteration (MaxTotal) at the platform's
	// on-demand billing; SpotCostPerIter at the spot rate when one exists.
	CostPerIter     float64
	SpotCostPerIter float64
	// Metrics carries application metrics (error norms, solver iterations).
	Metrics map[string]float64
	// PerRankSteps holds every rank's per-step phase breakdown (the raw
	// data behind Iter), for timeline export and custom analyses.
	PerRankSteps [][]vclock.PhaseTimes
}

// AttemptFailure describes an execution attempt killed by an injected or
// modelled failure: the typed run error plus what the supervisor needs to
// account for the loss.
type AttemptFailure struct {
	// Err is the run error; errors.Is(Err, mp.ErrRankDead) for node loss.
	Err error
	// Node and At identify the scheduled failure (Node −1 when the world
	// recorded none — an application error, not a node death).
	Node int
	// At is the failure's scheduled virtual time.
	At float64
	// ElapsedS is the furthest virtual time any rank reached before the
	// world shut down. Like At it is a function of the job and its fault
	// plan: each rank stops at a fixed point of its program, where its own
	// node's crash comes due or a receive finds its sender gone, so equal
	// runs give equal values.
	ElapsedS float64
	// World is the poisoned world the attempt died in. An elastic
	// supervisor calls World.Reform on it to re-form the survivors (and any
	// replacement nodes); restart supervisors may ignore it.
	World *mp.World
}

// Error implements error so a failure can be wrapped and classified.
func (f *AttemptFailure) Error() string { return f.Err.Error() }

// Unwrap exposes the underlying run error to errors.Is/As.
func (f *AttemptFailure) Unwrap() error { return f.Err }

// Run submits the job, executes it and aggregates the report. Scheduling
// failures (machine too small, launch limits, the lagrange IB volume cap)
// surface as the typed errors of internal/sched; fault-injected deaths
// surface as *AttemptFailure wrapping mp.ErrRankDead.
func (t *Target) Run(spec JobSpec) (*Report, error) {
	rep, af, err := t.Attempt(spec)
	if err != nil {
		return nil, err
	}
	if af != nil {
		return nil, af
	}
	return rep, nil
}

// Attempt submits the job once, distinguishing infrastructure verdicts:
// (rep, nil, nil) on success; (nil, af, nil) when the execution itself died
// (injected fault or application error) and retrying/recovering may make
// sense; (nil, nil, err) when the submission never ran (bad spec, scheduler
// refusal) — the supervisor's raw material.
func (t *Target) Attempt(spec JobSpec) (*Report, *AttemptFailure, error) {
	if spec.App == nil {
		return nil, nil, fmt.Errorf("core: job without application")
	}
	if spec.SkipSteps < 0 {
		return nil, nil, fmt.Errorf("core: SkipSteps %d is negative", spec.SkipSteps)
	}
	if err := t.Sched.Admit(spec.Ranks, spec.MemPerRankGB); err != nil {
		return nil, nil, err
	}
	p := t.Platform
	cpn := p.CoresPerNode()
	if spec.RanksPerNode > 0 {
		if spec.RanksPerNode > cpn {
			return nil, nil, fmt.Errorf("core: %d ranks per node exceeds %d cores (%s)",
				spec.RanksPerNode, cpn, p.Name)
		}
		cpn = spec.RanksPerNode
	}
	nodes := (spec.Ranks + cpn - 1) / cpn
	if nodes > p.MaxNodes {
		return nil, nil, fmt.Errorf("core: placement needs %d nodes, %s has %d",
			nodes, p.Name, p.MaxNodes)
	}
	queueWait := t.Sched.QueueWait(nodes)

	groups := spec.GroupOfNode
	if groups == nil {
		groups = make([]int, nodes)
	}
	if len(groups) != nodes {
		return nil, nil, fmt.Errorf("core: %d group assignments for %d nodes", len(groups), nodes)
	}
	nodeOf := make([]int, spec.Ranks)
	for r := range nodeOf {
		nodeOf[r] = r / cpn
	}
	topo, err := mp.NewTopology(nodeOf, groups)
	if err != nil {
		return nil, nil, err
	}
	commScale := p.CommScale
	if commScale == 0 {
		commScale = 1
	}
	fabric, err := netmodel.NewFabricScaled(p.Net, nodes, commScale)
	if err != nil {
		return nil, nil, err
	}
	world, err := mp.NewWorld(topo, fabric, p.Rater)
	if err != nil {
		return nil, nil, err
	}
	if err := fault.Arm(world, spec.Faults); err != nil {
		return nil, nil, err
	}
	world.UseInterns(&t.interns)
	world.Observe(spec.Obs)
	return t.execute(world, spec.App, "on", spec.SkipSteps, queueWait)
}

// ResumeAttempt runs app on an already-formed world — the world
// mp.World.Reform produced — instead of building placement, fabric, and
// topology from a JobSpec. There is no scheduler admission and no queue
// wait: the nodes are the ones the original job already held, and the
// world shares the original job's intern table (Reform passes it on).
// faults arms any remaining failure schedule (translated to the survivor
// node numbering); the same three-way verdict as Attempt applies, so a
// second node loss in the continuation surfaces as another *AttemptFailure
// carrying its own poisoned world.
func (t *Target) ResumeAttempt(world *mp.World, app App, skipSteps int, faults []fault.Event) (*Report, *AttemptFailure, error) {
	if app == nil {
		return nil, nil, fmt.Errorf("core: resume without application")
	}
	if world == nil {
		return nil, nil, fmt.Errorf("core: resume without world")
	}
	if skipSteps < 0 {
		return nil, nil, fmt.Errorf("core: SkipSteps %d is negative", skipSteps)
	}
	if err := fault.Arm(world, faults); err != nil {
		return nil, nil, err
	}
	return t.execute(world, app, "resumed on", skipSteps, 0)
}

// execute is the tail Attempt and ResumeAttempt share: run app on every
// rank of an armed world, prune the intern table to what the job used, then
// either describe the death (how words the error: "on" for a launch,
// "resumed on" for a continuation) or aggregate the per-rank profiles into
// the report.
func (t *Target) execute(world *mp.World, app App, how string, skipSteps int, queueWait float64) (*Report, *AttemptFailure, error) {
	p, ranks := t.Platform, world.Size()
	perRank := make([][]vclock.PhaseTimes, ranks)
	var metrics map[string]float64
	runErr := world.Run(func(r *mp.Rank) error {
		steps, m, err := app.Run(r)
		if err != nil {
			return err
		}
		perRank[r.ID()] = steps
		if r.ID() == 0 {
			metrics = m
		}
		return nil
	})
	world.FlushObs()
	t.interns.Prune()
	if runErr != nil {
		af := &AttemptFailure{
			Err: fmt.Errorf("core: %s %s %s with %d ranks: %w",
				app.Name(), how, p.Name, ranks, runErr),
			Node:     -1,
			ElapsedS: world.MaxVirtualTime(),
			World:    world,
		}
		if f, down := world.Failure(); down {
			af.Node, af.At = f.Node, f.At
		}
		return nil, af, nil
	}

	iter, err := aggregate(perRank, skipSteps)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Platform:     p.Name,
		App:          app.Name(),
		Ranks:        ranks,
		Nodes:        world.Topology().NNodes(),
		QueueWaitS:   queueWait,
		Iter:         iter,
		CostPerIter:  t.Billing.PerIteration(iter.MaxTotal, ranks),
		Metrics:      metrics,
		PerRankSteps: perRank,
	}
	if sb, err := cost.SpotForPlatform(p); err == nil {
		rep.SpotCostPerIter = sb.PerIteration(iter.MaxTotal, ranks)
	}
	return rep, nil, nil
}

// aggregate computes the paper's iteration statistics from per-rank,
// per-step phase breakdowns.
func aggregate(perRank [][]vclock.PhaseTimes, skip int) (IterStats, error) {
	if len(perRank) == 0 || len(perRank[0]) == 0 {
		return IterStats{}, fmt.Errorf("core: application reported no steps")
	}
	nsteps := len(perRank[0])
	for r, s := range perRank {
		if len(s) != nsteps {
			return IterStats{}, fmt.Errorf("core: rank %d reported %d steps, rank 0 %d",
				r, len(s), nsteps)
		}
	}
	if skip >= nsteps {
		skip = nsteps - 1 // always keep at least the last step
	}
	var st IterStats
	var commSum, totalSum float64
	ranks := float64(len(perRank))
	for s := skip; s < nsteps; s++ {
		var avgA, avgP, avgS, avgO, maxTot float64
		for r := range perRank {
			pt := perRank[r][s]
			avgA += pt.Phase(vclock.PhaseAssembly)
			avgP += pt.Phase(vclock.PhasePrecond)
			avgS += pt.Phase(vclock.PhaseSolve)
			avgO += pt.Phase(vclock.PhaseOther)
			if tot := pt.Total(); tot > maxTot {
				maxTot = tot
			}
			for _, ph := range vclock.Phases {
				commSum += pt.Comm[ph]
			}
			totalSum += pt.Total()
		}
		st.AvgAssembly += avgA / ranks
		st.AvgPrecond += avgP / ranks
		st.AvgSolve += avgS / ranks
		st.AvgOther += avgO / ranks
		st.MaxTotal += maxTot
		st.Steps++
	}
	k := float64(st.Steps)
	st.AvgAssembly /= k
	st.AvgPrecond /= k
	st.AvgSolve /= k
	st.AvgOther /= k
	st.MaxTotal /= k
	if totalSum > 0 {
		st.CommFraction = commSum / totalSum
	}
	return st, nil
}

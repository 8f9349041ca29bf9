package bench

// The recovery engine: ONE supervisor loop for every policy. Each pass arms
// the next scheduled fatal event, launches the current generation, folds
// what its ranks observed into the report, and either completes or
// classifies the failure into a recovery point, asks the policy for a verb
// and acts on it — restart, shrink or migrate — which leaves the next
// generation (and, for the two elastic verbs, the re-formed world it resumes
// on) for the following pass.

import (
	"errors"
	"fmt"
	"math"

	"heterohpc/internal/core"
	"heterohpc/internal/fault"
	"heterohpc/internal/mp"
	"heterohpc/internal/obs"
	"heterohpc/internal/partition"
	"heterohpc/internal/spot"
	"heterohpc/internal/trace"
)

// engine is the state of one supervised run. Its first three fields ARE the
// policy: restart always restarts from stable storage, shrink always
// shrinks, migrate drains at the notice and runs the decideRecovery ladder.
type engine struct {
	// decide picks the verb for a recovery point.
	decide func(pt *recoveryPoint) string
	// drain stops the world at a preemption's notice instead of its reclaim.
	drain bool
	// stable keeps checkpoints on stable storage, where they survive any
	// node loss and a restart can resume from them; otherwise they live in
	// node memory with a buddy mirror, which is what lets survivors continue
	// without a restart.
	stable bool

	s    *superSetup
	rep  *RecoveryReport
	sh   ShrinkStats
	mg   MigrateStats
	rec  trace.Recorder
	gobs *obs.Recorder

	market *spot.Market
	spares int
	// premiumPerHour accumulates the per-hour premium of every replacement
	// node over the typical spot rate; it is priced over the successful
	// attempt's duration once known.
	premiumPerHour float64
	// bo is the restart verb's retry backoff (seed+1); pbo the autoscaler's
	// provisioning backoff (seed+3; the market is seed+2), which only
	// advances when an acquisition actually exhausts the market.
	bo, pbo *fault.Backoff

	fatals, degrades []fault.Event
	// nodeMap translates the plan's original node numbering into the current
	// world's; re-formations compose into it. Plan slots follow ROLES, not
	// instances: a replacement (restart's, or a migration's) takes over the
	// slot of the node it replaced, so a later event aimed at that slot hits
	// the new instance instead of silently dropping.
	nodeMap []int
	// world is the re-formed world the next launch resumes on (nil: launch a
	// fresh one via Attempt).
	world *mp.World
	gen   *generation
}

// recoveryPoint is one classified failure: what died, when the supervisor
// stopped the world, and — after the arbiter — every node that goes with it.
type recoveryPoint struct {
	af *core.AttemptFailure
	// stopAt is when the attempt stopped; reclaimAt and noticeAt are the
	// armed event's scheduled reclaim and notice (stopAt is the notice when
	// the engine drained proactively, else the reclaim).
	stopAt, reclaimAt, noticeAt float64
	preempt, proactive          bool
	// doomed are the nodes lost at this point in current-world numbering,
	// origSlots the same in plan numbering; [0] is the one that failed.
	doomed, origSlots []int
	// replans counts cascade notices: replacements reclaimed mid-provisioning.
	replans int
	// window and copyCost are the notice window and the priced evacuation;
	// line/lineAtS the restore line taken at the notice (ladder only).
	window, copyCost float64
	line             int
	lineAtS          float64
}

func newEngine(s *superSetup) *engine {
	o := s.o
	e := &engine{
		s: s,
		rep: &RecoveryReport{
			Platform: o.Platform, App: o.App, Policy: o.Policy,
			Ranks: o.Ranks, FinalRanks: o.Ranks,
			Plan: s.plan, Clean: s.clean, CleanVirtualS: s.cleanS,
		},
		gobs:   o.Obs.Global(),
		market: s.newReplacementMarket(),
		spares: o.SpareNodes,
		bo:     fault.NewBackoff(o.BackoffBaseS, o.BackoffCapS, o.Seed+1),
		pbo:    fault.NewBackoff(o.BackoffBaseS, o.BackoffCapS, o.Seed+3),
		fatals: s.plan.Failures(), degrades: s.plan.Degradations(),
		nodeMap: make([]int, s.nodes),
	}
	e.rec.Observe(o.Obs)
	for i := range e.nodeMap {
		e.nodeMap[i] = i
	}
	return e
}

// newStore returns an empty store for a world of the given topology, placed
// per the policy and tapped for replay.
func (e *engine) newStore(topo mp.Topology) *snapshotStore {
	if e.stable {
		return newSnapshotStore(topo.NRanks(), nil, e.s.o.ckptTap)
	}
	return newSnapshotStore(topo.NRanks(), &topo, e.s.o.ckptTap)
}

// launchStore is newStore for the block placement a fresh launch of ranks
// processes gets from Attempt.
func (e *engine) launchStore(ranks int) (*snapshotStore, error) {
	topo, err := mp.BlockTopology(ranks, e.s.cpn)
	if err != nil {
		return nil, err
	}
	return e.newStore(topo), nil
}

// run is the supervisor loop.
func (e *engine) run() (*RecoveryReport, *generation, error) {
	o, rep := e.s.o, e.rep
	store, err := e.launchStore(o.Ranks)
	if err != nil {
		return nil, nil, err
	}
	if e.gen, _, err = weakGeneration(o.App, o.Ranks, o.PerRankN, o.Steps, store); err != nil {
		return nil, nil, err
	}
	maxAttempts := o.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = len(e.fatals) + 3
	}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		rep.Attempts = attempt
		events, pt := e.arm()

		var result *core.Report
		if e.world == nil {
			result, pt.af, err = e.s.tg.Attempt(core.JobSpec{
				Ranks: e.gen.ranks, RanksPerNode: o.RanksPerNode, App: e.gen,
				SkipSteps: o.SkipSteps, MemPerRankGB: e.s.mem, Faults: events, Obs: o.Obs,
			})
		} else {
			result, pt.af, err = e.s.tg.ResumeAttempt(e.world, e.gen, o.SkipSteps, events)
		}
		if err != nil {
			if c := fault.Classify(err); c != fault.ClassCapacity && c != fault.ClassResource {
				return nil, nil, err
			}
			// Retrying the same shape is futile — go smaller instead.
			if err := e.degrade(0, e.gen.ranks-1, err.Error()); err != nil {
				return nil, nil, err
			}
			continue
		}
		e.fold()
		if pt.af == nil {
			e.complete(result, attempt)
			return rep, e.gen, nil
		}
		if c := fault.Classify(pt.af); c != fault.ClassNodeLoss {
			rep.Decisions = e.rec.Decisions()
			return nil, nil, fmt.Errorf("bench: unrecoverable %v failure: %w", c, pt.af)
		}
		e.classify(pt, attempt)
		switch e.decide(pt) {
		case "migrate":
			err = e.migrate(pt)
		case "shrink":
			err = e.reform(pt, nil)
		default:
			err = e.restart(pt, attempt)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	rep.Decisions = e.rec.Decisions()
	return nil, nil, fmt.Errorf("bench: gave up after %d attempts (%d fault(s) outstanding)",
		maxAttempts, len(e.fatals))
}

// arm prepares the next launch's fault schedule: scheduled fatals aimed at
// nodes that no longer exist are dropped, the straggler windows and the
// earliest remaining fatal are translated to the current numbering, a
// preemption's notice is logged, and a draining policy moves the stop from
// the reclaim up to the notice. Only ONE fatal is armed: which of several
// armed crashes trips first would otherwise race in real time.
func (e *engine) arm() ([]fault.Event, *recoveryPoint) {
	for len(e.fatals) > 0 && len(fault.Remap(e.fatals[:1], e.nodeMap)) == 0 {
		e.rec.Record(e.fatals[0].At, "drop", "scheduled %s targets node %d, already lost; dropping it",
			e.fatals[0].Kind, e.fatals[0].Node)
		e.fatals = e.fatals[1:]
	}
	events := fault.Remap(e.degrades, e.nodeMap)
	pt := &recoveryPoint{line: -1}
	if len(e.fatals) > 0 {
		armed := fault.Remap(e.fatals[:1], e.nodeMap)[0]
		pt.reclaimAt, pt.noticeAt, pt.preempt = armed.At, armed.NoticeAt, armed.Kind == fault.KindPreempt
		if pt.preempt {
			e.rec.Record(armed.NoticeAt, "notice",
				"spot interruption notice for node %d (reclaim at t=%.1fs)", e.fatals[0].Node, armed.At)
			if e.drain && armed.NoticeAt < armed.At {
				// Proactive drain: stop the world at the notice rather than
				// the reclaim, leaving the window for the
				// evacuate/provision/grow sequence.
				pt.proactive = true
				armed.At = armed.NoticeAt
			}
		}
		events = append(events, armed)
	}
	return events, pt
}

// fold adds the finished generation's per-rank observations to the report
// (after every attempt, success or failure).
func (e *engine) fold() {
	g := e.gen
	e.sh.BuddyOverheadS += maxOf(g.mirrorS)
	e.sh.BuddyBytes += g.mirrorBytes
	e.sh.AgreeS += maxOf(g.agreeS)
	e.sh.RedistributeS += maxOf(g.redistS)
	if g.suspect != nil && g.agreedDead != nil {
		deadList := []int{}
		for r, d := range g.agreedDead {
			if d {
				deadList = append(deadList, r)
			}
		}
		e.rec.Record(0, "agree", "survivors agreed on dead ranks %v in %.4fs (max over ranks)",
			deadList, maxOf(g.agreeS))
	}
}

// complete closes the report over the successful attempt.
func (e *engine) complete(result *core.Report, attempt int) {
	rep, g := e.rep, e.gen
	rep.Final = result
	rep.FinalRanks = g.ranks
	rep.FinalVirtualS = virtualDuration(result)
	rep.RecoveryCostUSD += e.premiumPerHour * rep.FinalVirtualS / 3600
	e.sh.Survivors, e.sh.Grid = g.ranks, g.grid
	if e.stable {
		// Every restarted attempt began at t=0: the job took what the failed
		// attempts consumed plus the final one.
		rep.MakespanS = rep.WastedVirtualS + rep.FinalVirtualS
		e.rec.Record(rep.FinalVirtualS, "complete", "attempt %d finished on %d ranks", attempt, g.ranks)
	} else {
		// Clocks carry across re-formations: the furthest rank clock is the
		// job's end-to-end time.
		rep.MakespanS = rep.FinalVirtualS
		if e.world != nil {
			rep.MakespanS = e.world.MaxVirtualTime()
		}
		e.rec.Record(rep.MakespanS, "complete", "attempt %d finished on %d ranks (grid %dx%dx%d)",
			attempt, g.ranks, g.grid[0], g.grid[1], g.grid[2])
	}
	rep.Decisions = e.rec.Decisions()
}

// classify turns a node-loss failure into a recovery point: it names the
// lost node in the plan's numbering, logs the failure, consumes the armed
// event and — when the engine drained at a notice — lets the arbiter fold in
// the rest of the storm.
func (e *engine) classify(pt *recoveryPoint, attempt int) {
	af := pt.af
	pt.stopAt = af.At
	origNode := -1
	for on, cn := range e.nodeMap {
		if cn == af.Node {
			origNode = on
		}
	}
	pt.doomed, pt.origSlots = []int{af.Node}, []int{origNode}
	kind := "crash"
	if pt.preempt {
		kind = "preemption"
	}
	if pt.proactive {
		e.rec.Record(pt.stopAt, "failure", "%s drained node %d at the notice t=%.1fs (attempt %d, reclaim at t=%.1fs)",
			kind, origNode, pt.stopAt, attempt, pt.reclaimAt)
	} else {
		e.rec.Record(pt.stopAt, "failure", "%s killed node %d at t=%.1fs (attempt %d): %v",
			kind, origNode, pt.stopAt, attempt, fault.Classify(af))
	}
	if len(e.fatals) > 0 {
		e.fatals = e.fatals[1:]
	}
	if pt.proactive {
		e.coalesce(pt)
	}
}

// wasteSince charges the recovery point's rolled-back span to the ledger:
// everything since the restore line's rollback point, or the whole attempt
// when there is no line to resume from.
func (e *engine) wasteSince(pt *recoveryPoint, line int, lineAtS float64) float64 {
	wasted := pt.stopAt
	if line >= 1 {
		wasted = pt.stopAt - lineAtS
	}
	e.rep.WastedVirtualS += wasted
	e.rep.RecoveryCostUSD += e.s.tg.Billing.JobCost(wasted, e.gen.ranks)
	return wasted
}

// recordReplacement logs one instance bought from the replacement market and
// accrues its premium over the typical spot rate.
func (e *engine) recordReplacement(at float64, nd spot.Node, bid float64) {
	if nd.Spot {
		e.rec.Record(at, "provision", "replacement spot instance at $%.3f/h (bid $%.3f)", nd.PricePerHour, bid)
	} else {
		e.rec.Record(at, "provision", "spot market could not fill the bid; on-demand replacement at $%.2f/h — the paper's forced mix",
			nd.PricePerHour)
	}
	if typical := e.s.tg.Platform.SpotPerNodeHour; nd.PricePerHour > typical {
		e.premiumPerHour += nd.PricePerHour - typical
	}
}

// degrade re-partitions the job onto the largest cube at most toRanks: a new
// (smaller) weak-scaling problem launched from scratch.
func (e *engine) degrade(atS float64, toRanks int, why string) error {
	o, ranks := e.s.o, e.gen.ranks
	to := degradedShape(ranks, toRanks)
	if to < 1 {
		return fmt.Errorf("bench: cannot degrade below 1 rank (%s)", why)
	}
	e.rec.Record(atS, "degrade", "re-partitioning onto %d of %d ranks (%s); checkpoints at the old size are discarded",
		to, ranks, why)
	e.rep.Degraded = true
	store, err := e.launchStore(to)
	if err != nil {
		return err
	}
	e.gen, _, err = weakGeneration(o.App, to, o.PerRankN, o.Steps, store)
	e.world = nil
	return err
}

// restart is the restart verb: the whole attempt up to the failure is paid
// for, and the job relaunches. From stable storage that means re-provisioning
// the lost node (spot first, on-demand fallback — the paper's "mix" — then
// cold spares, then degrading to fewer ranks), backing off unless a notice
// staged the replacement, and resuming every rank from the restore line.
// From node memory it is the last rung of the ladder — nothing survived to
// continue on — so the current shape relaunches cold.
func (e *engine) restart(pt *recoveryPoint, attempt int) error {
	o, p, g := e.s.o, e.s.tg.Platform, e.gen
	e.wasteSince(pt, -1, 0)
	e.world = nil
	if !e.stable {
		e.rec.Record(pt.stopAt, "restart", "cold restart at %d ranks (grid %dx%dx%d)",
			g.ranks, g.grid[0], g.grid[1], g.grid[2])
		// Every nodeMap entry pointed at the lost world, so remaining
		// scheduled fatals are dropped on the next pass rather than aimed at
		// fresh instances.
		for on := range e.nodeMap {
			e.nodeMap[on] = -1
		}
		store, err := e.launchStore(g.ranks)
		e.gen = g.next(g.grid, g.ranks, store)
		return err
	}

	// A preemption was announced: the supervisor reacts at the notice, not
	// at the kill, so replacement provisioning is staged inside the window.
	provAt := pt.stopAt
	if pt.preempt {
		provAt = pt.noticeAt
	}
	lost := pt.origSlots[0]
	oneNodeLess := ((g.ranks+e.s.cpn-1)/e.s.cpn - 1) * e.s.cpn
	var err error
	switch {
	case e.market != nil:
		bid := o.SpotBidFraction * p.CostPerNodeHour
		repl, aerr := e.market.AcquireMix(1, bid, 1, 3)
		if aerr == nil {
			e.recordReplacement(provAt, repl.Nodes[0], bid)
			break
		}
		if !errors.Is(aerr, spot.ErrExhausted) {
			return aerr
		}
		// A capped market can sell out entirely; degrade exactly like a
		// marketless platform out of spares.
		e.rec.Record(provAt, "provision", "spot and on-demand supply exhausted; no replacement for node %d", lost)
		err = e.degrade(pt.stopAt, oneNodeLess, "market exhausted")
	case e.spares > 0:
		e.spares--
		e.rec.Record(provAt, "provision", "cold spare replaces node %d (%d spare(s) left)", lost, e.spares)
	default:
		err = e.degrade(pt.stopAt, oneNodeLess, "no replacement capacity")
	}
	if err != nil {
		return err
	}

	if pt.preempt {
		// The notice lead absorbed the reaction: the replacement was
		// requested when the notice arrived, so the job restarts as soon as
		// the instance is reclaimed, with no backoff delay charged — the
		// measurable benefit of a preemption over an unannounced crash.
		e.rec.Record(pt.stopAt, "drain", "notice window staged the replacement; restarting without backoff (attempt %d)", attempt)
	} else {
		d := e.bo.Next()
		e.rep.WastedVirtualS += d
		e.rep.BackoffS += d
		e.rec.Record(pt.stopAt+d, "backoff", "retrying after %.1fs (attempt %d)", d, attempt)
	}

	// The cross-rank restore line: ranks killed one step apart all fall back
	// to the latest step every rank saved (a degraded job has none).
	store := e.gen.store
	hi := store.newest()
	lo, _ := store.line(math.MaxInt)
	store.rollback(lo)
	switch {
	case lo >= 0 && hi > lo:
		e.rec.Record(0, "restore", "attempt %d resumes all %d ranks from the checkpoint after step %d (step-%d blobs from ranks that raced ahead are discarded)",
			attempt+1, e.gen.ranks, lo, hi)
	case lo >= 0:
		e.rec.Record(0, "restore", "attempt %d resumes all %d ranks from the checkpoint after step %d",
			attempt+1, e.gen.ranks, lo)
	}
	return nil
}

// growth is what a migration adds in its re-formation: the new nodes'
// rank counts and placement groups, when they join, and how many of them
// replace doomed slots one for one (the rest regrow earlier deficit).
type growth struct {
	ranksPer, groupsOf []int
	startAt            float64
	replaceN           int
}

// reform is the one re-formation step behind both elastic verbs: the doomed
// nodes take their memory with them, the restore line is fixed, one
// mp.World.Reform drops them from the world (and, for a migration, adds the
// acquired nodes), the rolled-back span goes on the waste ledger, the
// global mesh is re-partitioned onto the new rank count, and the next
// generation is set up to open with the agreement round and redistribute
// from whatever fragments its ranks hold, checkpointing into a fresh store
// on the new topology.
//
// A shrink (grow nil) restores the line that SURVIVED the loss; a migration
// restores the line it evacuated, taken at the notice while the doomed nodes
// were still alive.
func (e *engine) reform(pt *recoveryPoint, grow *growth) error {
	o, g, store := e.s.o, e.gen, e.gen.store
	for _, d := range pt.doomed {
		store.loseNode(d)
	}
	line, lineAtS := pt.line, pt.lineAtS
	if grow == nil {
		// Resumption must leave at least one step to run, so the line is
		// capped at Steps-1.
		line, lineAtS = store.line(o.Steps - 1)
	}
	var ranksPer, groupsOf []int
	at := pt.stopAt
	if grow != nil {
		ranksPer, groupsOf, at = grow.ranksPer, grow.groupsOf, grow.startAt
	}
	rf, err := pt.af.World.Reform(pt.doomed[1:], ranksPer, groupsOf, at)
	if err != nil {
		return err
	}
	e.sh.Shrinks++
	e.sh.RevokedMsgs += rf.Revoked
	e.sh.DeadNodes = append(e.sh.DeadNodes, pt.origSlots...)
	world, toOld := rf.World, rf.NewToOld
	if grow == nil {
		e.rec.Record(at, "shrink", "world shrunk %d -> %d ranks (%d pending message(s) revoked)",
			g.ranks, world.Size(), rf.Revoked)
	} else {
		survivors := g.ranks - len(rf.DeadRanks)
		e.gobs.WorldGrow(at, survivors, world.Size(), rf.NewNodes[0])
		e.rec.Record(at, "world-grow", "world grew %d -> %d ranks: replacement joins as node %d at t=%.1fs",
			survivors, world.Size(), rf.NewNodes[0], at)
	}

	// Only the rolled-back span is wasted: survivors keep their work up to
	// the restore line. A cold re-formation (no common line) rolls all the
	// way back to the start.
	wasted := e.wasteSince(pt, line, lineAtS)

	ranks := world.Size()
	grid, err := partition.BalancedGrid(ranks, g.m.Nx, g.m.Ny, g.m.Nz)
	if err != nil {
		return fmt.Errorf("bench: cannot repartition onto %d ranks: %w", ranks, err)
	}
	if grow == nil {
		e.rec.Record(at, "repartition", "global mesh %dx%dx%d re-partitioned onto grid %dx%dx%d",
			g.m.Nx, g.m.Ny, g.m.Nz, grid[0], grid[1], grid[2])
		if part, perr := partition.Block(g.m, grid[0], grid[1], grid[2]); perr == nil {
			if q, qerr := partition.Evaluate(partition.DualGraph{M: g.m}, part, ranks); qerr == nil {
				e.sh.PartitionImbalance = q.Imbalance
			}
		}
	}

	next := g.next(grid, ranks, e.newStore(world.Topology()))
	warm, cold := "survivors resume from the mirrored checkpoint", "no common mirrored step survived; survivors restart the stepping from scratch (cold shrink)"
	if grow != nil {
		warm, cold = "continuation resumes from the evacuated checkpoint", "no checkpoint preceded the notice; the full-width world restarts the stepping from scratch (cold migration)"
	}
	if e.sh.RestoreStep = max(line, 0); line >= 1 {
		e.rec.Record(at, "restore", "%s after step %d (rollback %.3fs)", warm, line, wasted)
		if next.held, err = store.heldAt(o.App, toOld, pt.doomed, line); err != nil {
			return err
		}
	} else {
		e.rec.Record(at, "restore", "%s", cold)
	}
	// The continuation opens with the agreement collective over the
	// pre-loss rank space.
	next.suspect = make([]bool, g.ranks)
	for _, d := range rf.DeadRanks {
		next.suspect[d] = true
	}
	if world.Topology().NNodes() < 2 {
		e.rec.Record(at, "unprotected", "single node left; diskless mirroring has no off-node partner")
	}

	for on := range e.nodeMap {
		if e.nodeMap[on] >= 0 {
			e.nodeMap[on] = rf.OldToNewNode[e.nodeMap[on]]
		}
	}
	if grow != nil {
		for i := 0; i < grow.replaceN && i < len(rf.NewNodes); i++ {
			e.nodeMap[pt.origSlots[i]] = rf.NewNodes[i]
		}
	}
	// The re-formed world is a fresh mp.World: re-attach the observer so the
	// continuation's traffic lands in the same journal.
	world.Observe(o.Obs)
	e.world, e.gen = world, next
	e.rep.Degraded = ranks < o.Ranks
	return nil
}

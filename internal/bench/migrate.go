package bench

// Proactive preemption recovery: instead of waiting for the spot market to
// reclaim an instance and then reacting (restart or shrink), the supervisor
// acts on the two-minute interruption notice. It drains the job at the
// notice, prices an evacuation of the doomed node's diskless checkpoint
// shards to their buddy nodes, and — when the window covers the copy and a
// replacement can be provisioned — drops the dead node and adds a
// replacement in one re-formation (mp.World.Reform), resuming at full
// width. The
// elasticity driver decides migrate-vs-shrink-vs-restart per event, so the
// policy degrades gracefully to the reactive paths and can never hang.
//
// Correlated storms extend the single-event loop with a recovery ARBITER:
// when several preemption notices land inside one notice window (a
// price-spike reclamation wave), the arbiter coalesces them into ONE
// recovery point — one drain, one evacuation (re-homing shards whose buddy
// node is itself doomed onto surviving refugees), one multi-node
// re-formation — so overlapping events can never double-restore. A second
// notice for a slot already doomed in the same window is a cascade: the
// replacement being provisioned for it is reclaimed mid-flight, and the
// arbiter re-plans by acquiring another. On top sits an elastic
// AUTOSCALER: AcquireMix exhaustion (a capped market) is retried with
// seeded exponential backoff instead of failing the run, and — with
// FaultOptions.Regrow — a recovery point on a previously-degraded world
// also re-provisions the missing width, growing back to the submitted
// size. The fallback ladder stays monotone: a migrate whose provisioning
// ultimately fails downgrades to shrink, never back up.

import (
	"errors"
	"fmt"
	"slices"

	"heterohpc/internal/fault"
	"heterohpc/internal/mp"
	"heterohpc/internal/provision"
	"heterohpc/internal/spot"
)

// MigrateStats itemises what the proactive migrate policy did with each
// fatal event (nil on reports from the other policies).
type MigrateStats struct {
	// Migrations counts completed notice-window migrations (drain,
	// evacuate, shrink dead node out, grow replacement in).
	Migrations int
	// FallbackShrinks and FallbackRestarts count fatal events the
	// elasticity driver routed to the reactive paths: unannounced crashes,
	// windows too short for the evacuation, exhausted capacity, or no
	// survivors at all.
	FallbackShrinks, FallbackRestarts int
	// ReplacedNodes lists the migrated-away nodes in the fault plan's
	// original numbering, in event order.
	ReplacedNodes []int
	// EvacuatedBlobs, CopyBytes and CopyS measure the notice-window buddy
	// evacuation: checkpoint shards copied off doomed nodes, their bytes,
	// and their total priced transfer time.
	EvacuatedBlobs int
	CopyBytes      int64
	CopyS          float64
	// WindowS sums the notice windows (reclaim − drain) of all noticed
	// events, whether or not they migrated.
	WindowS float64
	// RestoreStep is the checkpoint step the last migration resumed from
	// (0 for a cold migration before the first checkpoint).
	RestoreStep int
	// Coalesced counts fatal events the arbiter folded into an earlier
	// event's recovery point (beyond the first of each correlated group);
	// Replans counts cascade re-plans, where the replacement being
	// provisioned for a slot was itself reclaimed inside the same window.
	Coalesced, Replans int
	// ProvisionRetries counts the autoscaler's backoff retries after
	// AcquireMix exhaustion; RegrownNodes counts the deficit nodes it
	// re-grew beyond one-for-one replacements (FaultOptions.Regrow).
	ProvisionRetries int
	RegrownNodes     int
}

// elasticityDecision is the driver's verdict for one fatal event.
type elasticityDecision struct {
	Verb   string // "migrate", "shrink" or "restart"
	Reason string
}

// decideRecovery is the elasticity driver: given the notice window a fatal
// event leaves after the drain, the priced evacuation cost, and what the
// run can still do (shrinking needs surviving nodes, migrating needs
// replacement capacity), it picks the cheapest recovery that cannot hang.
// The ladder is strict: migrate when the window covers the copy and a
// replacement exists, shrink when it does not, restart when not even
// survivors remain.
//
// The window boundary is pinned: the shrink guard is strictly
// copyCostS > windowS, so a window EXACTLY equal to the priced evacuation
// migrates — the last byte lands at the reclaim instant, and the reclaim
// takes memory that has already been copied. Equality therefore favours
// the cheaper verb, and the exact-boundary case is covered by a table
// test.
func decideRecovery(windowS, copyCostS float64, canShrink, canProvision bool) elasticityDecision {
	switch {
	case !canShrink:
		return elasticityDecision{Verb: "restart", Reason: "no survivor node to continue on"}
	case windowS <= 0:
		return elasticityDecision{Verb: "shrink", Reason: "failure carried no usable notice window"}
	case !canProvision:
		return elasticityDecision{Verb: "shrink", Reason: "no replacement capacity (market or spares)"}
	case copyCostS > windowS:
		return elasticityDecision{Verb: "shrink",
			Reason: fmt.Sprintf("notice window %.3fs shorter than the %.3fs evacuation", windowS, copyCostS)}
	default:
		return elasticityDecision{Verb: "migrate",
			Reason: fmt.Sprintf("notice window %.3fs covers the %.3fs evacuation", windowS, copyCostS)}
	}
}

// doomedRanks returns the ranks living on node, ascending.
func doomedRanks(topo mp.Topology, node int) []int {
	var rs []int
	for r, n := range topo.NodeOf {
		if n == node {
			rs = append(rs, r)
		}
	}
	return rs
}

// regrowSetupS prices the software instantiation of a deficit node the
// autoscaler grows beyond a one-for-one replacement: the platform's
// preconditioned image (§VI-D) reduces the whole stack to one launch step
// of the provisioning planner. Replacements inside a notice window pay
// nothing extra — the window itself is the budget — but cold capacity
// joining a degraded world is new machinery and boots the image first.
func regrowSetupS(platform string) float64 {
	st, err := provision.PlatformState(platform)
	if err != nil {
		return 0 // platform outside the paper's porting study: free join
	}
	plan, err := provision.Resolve(provision.DefaultRegistry(), st.WithImage(), provision.AppTargets)
	if err != nil {
		return 0
	}
	return plan.TotalHours * 3600
}

// coalesce is the recovery ARBITER: it folds correlated notices into one
// recovery point. Every further preemption whose notice lands before this
// group's earliest reclaim belongs to the same storm: its node joins the
// doomed set (one shared drain/evacuate/shrink/grow), and a repeat notice for
// an already-doomed slot is a cascade — the replacement being provisioned for
// it is reclaimed mid-flight, so one extra acquisition is burned. Folding
// stops at the first non-notice event, preserving plan order. Crashes never
// coalesce: they are unannounced, and pretending to know them at the drain
// would break causality.
func (e *engine) coalesce(pt *recoveryPoint) {
	for len(e.fatals) > 0 {
		ev := e.fatals[0]
		if ev.Kind != fault.KindPreempt || ev.NoticeAt >= ev.At || ev.NoticeAt > pt.reclaimAt {
			break
		}
		cur := -1
		if ev.Node >= 0 && ev.Node < len(e.nodeMap) {
			cur = e.nodeMap[ev.Node]
		}
		e.fatals = e.fatals[1:]
		switch {
		case cur < 0:
			e.rec.Record(ev.NoticeAt, "drop", "storm notice targets node %d, already lost; dropping it", ev.Node)
		case slices.Contains(pt.doomed, cur):
			pt.replans++
			e.mg.Replans++
			e.rec.Record(ev.NoticeAt, "replan", "second notice for node %d inside the same window: its replacement is reclaimed mid-provisioning; acquiring another",
				ev.Node)
		default:
			pt.doomed = append(pt.doomed, cur)
			pt.origSlots = append(pt.origSlots, ev.Node)
			e.mg.Coalesced++
			e.rec.Record(ev.NoticeAt, "coalesce", "notice for node %d lands inside node %d's window; folding into one recovery point",
				ev.Node, pt.origSlots[0])
		}
	}
}

// evacuation walks the notice-window evacuation of a recovery point: for
// every doomed rank that has a copy at the restore line it yields the rank,
// the copy, and where it goes — the rank's buddy, or, when the buddy is
// itself doomed, the first surviving rank (a refugee copy).
func (e *engine) evacuation(pt *recoveryPoint, visit func(dr, dst int, sn snap)) {
	if pt.line < 1 {
		return
	}
	store, topo := e.gen.store, pt.af.World.Topology()
	doomed := func(r int) bool { return slices.Contains(pt.doomed, topo.NodeOf[r]) }
	refugee := slices.IndexFunc(topo.NodeOf, func(n int) bool { return !slices.Contains(pt.doomed, n) })
	for _, d := range pt.doomed {
		for _, dr := range doomedRanks(topo, d) {
			sn, ok := store.copyAt(dr, pt.line)
			dst := store.buddy[dr]
			if dst < 0 || doomed(dst) {
				dst = refugee
			}
			if ok && dst >= 0 {
				visit(dr, dst, sn)
			}
		}
	}
}

// ladder is the migrate policy's decide function: it prices what the notice
// window would have to absorb — the doomed ranks' restore-line shards
// re-mirrored off the doomed set, serialised through each doomed node's NIC,
// with the line taken while the nodes are still alive (the whole point of
// acting at the notice) — runs the elasticity driver and logs its verdict.
func (e *engine) ladder(pt *recoveryPoint) string {
	topo := pt.af.World.Topology()
	if pt.proactive {
		pt.window = pt.reclaimAt - pt.stopAt
		e.mg.WindowS += pt.window
		pt.line, pt.lineAtS = e.gen.store.line(e.s.o.Steps - 1)
		e.evacuation(pt, func(dr, dst int, sn snap) {
			pt.copyCost += pt.af.World.PriceBytes(dr, dst, len(sn.blob))
		})
	}
	canShrink := topo.NNodes() >= len(pt.doomed)+1
	canProvision := e.market != nil || e.spares >= len(pt.doomed)+pt.replans
	dec := decideRecovery(pt.window, pt.copyCost, canShrink, canProvision)
	e.gobs.MigrateDecision(pt.stopAt, dec.Verb, pt.window, pt.copyCost)
	if len(pt.doomed) > 1 || pt.replans > 0 {
		e.gobs.ArbiterCoalesce(pt.stopAt, dec.Verb, len(pt.doomed), len(pt.doomed)-1, pt.replans)
	}
	detail := dec.Reason
	if e.market != nil {
		detail = fmt.Sprintf("%s; spot last ticked at $%.3f/h", detail, e.market.Price())
	}
	e.rec.Record(pt.stopAt, "migrate-decision", "%s for node %d: %s", dec.Verb, pt.origSlots[0], detail)
	switch dec.Verb {
	case "shrink":
		e.mg.FallbackShrinks++
	case "restart":
		e.mg.FallbackRestarts++
	}
	return dec.Verb
}

// migrate is the migrate verb: evacuate inside the window, provision inside
// the same window, then re-form the world ONCE around the survivors plus
// every acquired node — one shrink, one grow per recovery point, so
// overlapping events cannot double-restore. A migration whose provisioning
// ultimately fails downgrades monotonically to the shrink verb, never back
// up.
func (e *engine) migrate(pt *recoveryPoint) error {
	o, mg := e.s.o, &e.mg
	topo := pt.af.World.Topology()
	store := e.gen.store

	// Re-mirror the doomed ranks' line shards off the doomed set as priced
	// traffic, so the copies are off-node before the first reclaim. A copy
	// keeps its checkpoint's time, not its arrival: a fallback shrink rolls
	// back to when the restored state was saved.
	evacAt, evacN := pt.stopAt, 0
	e.evacuation(pt, func(dr, dst int, sn snap) {
		evacAt += pt.af.World.PriceBytes(dr, dst, len(sn.blob))
		if dst == store.buddy[dr] {
			store.putBuddy(dr, pt.line, sn.atS, sn.blob)
		} else {
			store.putRefugee(dr, dst, pt.line, sn.atS, sn.blob)
		}
		evacN++
		mg.CopyBytes += int64(len(sn.blob))
	})
	mg.EvacuatedBlobs += evacN
	mg.CopyS += pt.copyCost
	e.rec.Record(pt.stopAt, "drain", "notice window %.1fs: drained in-flight collectives, evacuated %d shard(s) in %.4fs",
		pt.window, evacN, pt.copyCost)

	// One replacement per doomed node, one extra per cascade re-plan, plus —
	// when the autoscaler may regrow — the deficit a previous degradation
	// left. Market exhaustion backs off and retries: the market keeps
	// ticking, so a later round can clear.
	deficitRanks := 0
	if o.Regrow && e.gen.ranks < o.Ranks {
		deficitRanks = o.Ranks - e.gen.ranks
	}
	deficitNodes := (deficitRanks + e.s.cpn - 1) / e.s.cpn
	need := len(pt.doomed) + pt.replans + deficitNodes
	acquired, readyAt, err := e.provision(pt, need, o.ProvisionRetries, evacAt)
	if err != nil {
		return err
	}
	if e.market != nil && acquired < need {
		e.rec.Record(readyAt, "provision", "market exhausted after %d acquisition attempt(s): %d of %d instance(s)",
			max(o.ProvisionRetries, 0)+1, acquired, need)
	}

	// Cascade-burned acquisitions come off the top; the remainder replaces
	// doomed slots in fold order, then regrows deficit width.
	usable := max(acquired-pt.replans, 0)
	gr := &growth{replaceN: min(usable, len(pt.doomed)), startAt: readyAt}
	regrowN := min(usable-gr.replaceN, deficitNodes)
	if gr.replaceN == 0 {
		mg.FallbackShrinks++
		e.gobs.MigrateDecision(readyAt, "shrink", pt.window, pt.copyCost)
		e.rec.Record(readyAt, "migrate-decision", "shrink for node %d: replacement provisioning failed; falling back",
			pt.origSlots[0])
		return e.reform(pt, nil)
	}
	for _, d := range pt.doomed[:gr.replaceN] {
		gr.ranksPer = append(gr.ranksPer, len(doomedRanks(topo, d)))
		gr.groupsOf = append(gr.groupsOf, topo.GroupOfNode[d])
	}
	for i := 0; i < regrowN; i++ {
		take := min(e.s.cpn, deficitRanks)
		gr.ranksPer = append(gr.ranksPer, take)
		gr.groupsOf = append(gr.groupsOf, topo.GroupOfNode[pt.af.Node])
		deficitRanks -= take
	}
	if regrowN > 0 {
		setupS := regrowSetupS(o.Platform)
		gr.startAt += setupS
		mg.RegrownNodes += regrowN
		e.rec.Record(gr.startAt, "provision", "%d deficit node(s) instantiate the preconditioned image in %.0fs and join the re-grow",
			regrowN, setupS)
	}
	if err := e.reform(pt, gr); err != nil {
		return err
	}
	mg.Migrations++
	mg.ReplacedNodes = append(mg.ReplacedNodes, pt.origSlots[:gr.replaceN]...)
	mg.RestoreStep = e.sh.RestoreStep
	return nil
}

// provision is the engine's one source of replacement nodes: it acquires
// need instances for a recovery point, starting at virtual time at, logs
// each at the point's reaction time, and returns how many it got and when
// the last one was ready. On a market an exhausted acquisition is retried
// with seeded exponential backoff up to retries times; marketless platforms
// draw on the cold-spare pool. A shortfall is the caller's to log.
func (e *engine) provision(pt *recoveryPoint, need, retries int, at float64) (acquired int, readyAt float64, err error) {
	react, readyAt := pt.reactAt(), at
	if e.market == nil {
		take := min(need, e.spares)
		for i := 0; i < take; i++ {
			e.spares--
			if i < len(pt.origSlots) {
				e.rec.Record(react, "provision", "cold spare replaces node %d (%d spare(s) left)", pt.origSlots[i], e.spares)
			} else {
				e.rec.Record(react, "provision", "cold spare grows the degraded world (%d spare(s) left)", e.spares)
			}
		}
		return take, readyAt, nil
	}
	bid := spotBidFraction * e.s.tg.Platform.CostPerNodeHour
	for attempt := 1; ; attempt++ {
		repl, aerr := e.market.AcquireMix(need-acquired, bid, 1, 3)
		if aerr != nil && !errors.Is(aerr, spot.ErrExhausted) {
			return 0, 0, aerr
		}
		for _, nd := range repl.Nodes {
			e.recordReplacement(react, nd, bid)
		}
		if acquired += len(repl.Nodes); acquired >= need || attempt > retries {
			return acquired, readyAt, nil
		}
		d := e.pbo.Next()
		readyAt += d
		e.rep.WastedVirtualS += d
		e.rep.BackoffS += d
		e.mg.ProvisionRetries++
		e.gobs.ProvisionRetry(readyAt, attempt, acquired, need, d)
		e.rec.Record(readyAt, "backoff", "provisioning retry %d after %.1fs: %d of %d instance(s) acquired",
			attempt, d, acquired, need)
	}
}

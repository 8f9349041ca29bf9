// Fault injection hooks of the message-passing substrate.
//
// The paper's central experience is that heterogeneous targets fail in
// platform-specific ways — EC2 spot assemblies lose instances to the market
// mid-run, clusters lose nodes to hardware. A World therefore carries an
// optional per-node failure schedule expressed in *virtual* time, with
// fail-stop semantics (like MPI's default error handler) delivered as a
// typed ErrRankDead through World.Run instead of a deadlock.
//
// Death is deterministic per rank, never a wall-clock race:
//
//   - A rank on the failed node dies at the first communication call where
//     its own virtual clock has reached the scheduled kill time — a fixed
//     point in its deterministic program.
//   - Every other rank keeps running on the messages its peers
//     deterministically sent before dying, and dies exactly at its first
//     receive that can never be satisfied (the sender terminally exited
//     without sending). Messages queued before a death are still
//     delivered.
//
// A rank's exit wakes only the ranks parked on a message from it: each
// mailbox records the (source, tag) its owner waits for, in the mailbox or
// on a link, and markDead reads those records instead of waking every
// mailbox of the world.
//
// The allreduce keeps both rules without moving a message. It resolves
// only when every rank has either arrived in it or exited, and then
// replays each arrived rank's fault checks, sends and receives of the
// message trees: a rank whose clock reaches its node's kill time at a check
// dies at that check, and a receive whose sender died earlier in the trees,
// or exited without arriving, kills the receiver there. Each rank thus dies
// where, and with the clock at which, the trees would have stopped it.
//
// The set of operations each rank completes before dying — and therefore
// the set of checkpoints it saved — is thus a function of the program and
// the fault schedule alone, so equal seeds produce equal failures AND
// equal recovery states, which the checkpoint-restart supervisor relies
// on.
package mp

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDead is the typed error every rank of a poisoned world observes:
// a node of the job failed (crash or spot preemption) and its ranks are
// gone. Match with errors.Is.
var ErrRankDead = errors.New("mp: rank dead (node failed)")

// Failure records the injected failure that poisoned a world.
type Failure struct {
	// Node is the failed node's index in the topology.
	Node int
	// At is the scheduled virtual failure time (seconds).
	At float64
}

// killedPanic is the internal unwind signal of a poisoned world; World.Run
// converts it into ErrRankDead.
type killedPanic struct{}

// degradeWindow is a transient link-degradation / straggler interval: all
// communication charged by ranks on node is factor× slower during
// [from, until) of their virtual time.
type degradeWindow struct {
	node        int
	from, until float64
	factor      float64
}

// ScheduleNodeCrash schedules node to fail once any of its ranks' virtual
// clocks reaches at seconds. Must be called before Run. Scheduling several
// crashes is allowed; the first one reached poisons the world (arm events
// one at a time for a fully deterministic failure order).
func (w *World) ScheduleNodeCrash(node int, at float64) error {
	if err := w.live(); err != nil {
		return err
	}
	if node < 0 || node >= w.topo.NNodes() {
		return fmt.Errorf("mp: crash on node %d of %d", node, w.topo.NNodes())
	}
	if at < 0 || math.IsNaN(at) {
		return fmt.Errorf("mp: crash at invalid virtual time %v", at)
	}
	if w.killAt == nil {
		w.killAt = make([]float64, w.topo.NNodes())
		for i := range w.killAt {
			w.killAt[i] = math.Inf(1)
		}
	}
	if at < w.killAt[node] {
		w.killAt[node] = at
	}
	return nil
}

// ScheduleDegrade makes communication charged by ranks on node factor×
// slower while their virtual clocks are in [from, until) — a transient
// link degradation or straggler node. Must be called before Run.
func (w *World) ScheduleDegrade(node int, from, until, factor float64) error {
	if err := w.live(); err != nil {
		return err
	}
	if node < 0 || node >= w.topo.NNodes() {
		return fmt.Errorf("mp: degrade on node %d of %d", node, w.topo.NNodes())
	}
	if !(until > from) || factor <= 0 {
		return fmt.Errorf("mp: degrade window [%v,%v) factor %v", from, until, factor)
	}
	w.degrades = append(w.degrades, degradeWindow{node: node, from: from, until: until, factor: factor})
	return nil
}

// Failure returns the injected failure that poisoned the world, if any.
func (w *World) Failure() (Failure, bool) {
	must(w.live())
	return w.recorded()
}

func (w *World) recorded() (Failure, bool) {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failure, w.down
}

// MaxVirtualTime returns the largest per-rank virtual time — after an
// aborted run, the fleet time burned before the failure stopped it.
func (w *World) MaxVirtualTime() float64 {
	must(w.live())
	return w.maxVirtualTime()
}

func (w *World) maxVirtualTime() float64 {
	var max float64
	for _, c := range w.clocks {
		if t := c.Now(); t > max {
			max = t
		}
	}
	return max
}

// fail poisons the world: it records node's crash at virtual time at as the
// failure, unless one is recorded already. Waking the ranks blocked on the
// dying rank's messages happens in markDead, once the rank has unwound and
// truly can never send again.
func (w *World) fail(node int, at float64) {
	w.failMu.Lock()
	if !w.down {
		w.failure, w.down = Failure{Node: node, At: at}, true
	}
	w.failMu.Unlock()
}

// markDead records that rank id has terminally exited and wakes the ranks
// parked on a message from it, so they unwind. Ranks parked on any other
// sender are neither woken nor locked. The flag is set before the wait
// records are read and take publishes its record before it reads the flag;
// both are sequentially consistent atomics, so a waiter on id either sees
// the death before it parks or is seen here.
// Seen, it may still hold its lock on the way into cond.Wait: taking the lock
// before signalling waits until it is enrolled.
// Ranks parked in the allreduce wait on no sender: the exit counts towards
// the collective, which it resolves if every other rank is parked in it.
func (w *World) markDead(id int) {
	w.rankDead[id].Store(true)
	for _, mb := range w.boxes {
		if mb.waitSrc.Load() != int32(id) {
			continue
		}
		mb.mu.Lock()
		if mb.waitSrc.Load() == int32(id) {
			mb.waitSrc.Store(noWait)
			mb.cond.Signal()
		}
		mb.mu.Unlock()
	}
	w.allreduce.exit(id)
}

// checkFault is called on every send and receive path: it fires this
// rank's own node crash when the rank's virtual clock has reached it.
// Deaths of other ranks are observed only through unsatisfiable receives
// (mailbox.take and a link's await, the blocking paths, which every receive
// goes through because every receive names its sender, and the
// allreduce's replay of them), never through a global flag, so each rank's
// progress at death is deterministic rather than a wall-clock race.
func (r *Rank) checkFault() {
	if r.due() {
		panic(killedPanic{})
	}
}

// due reports whether this rank's node crash has come due at the rank's
// virtual time, recording the failure if so: checkFault without the unwind,
// for the allreduce, which checks parked ranks.
func (r *Rank) due() bool {
	w := r.world
	if w.killAt != nil {
		node := w.topo.NodeOf[r.id]
		if at := w.killAt[node]; r.clk.Now() >= at {
			w.fail(node, at)
			return true
		}
	}
	return false
}

// commFactor returns the degradation multiplier in effect for rank r at
// its current virtual time (1 when none).
func (r *Rank) commFactor() float64 {
	w := r.world
	if len(w.degrades) == 0 {
		return 1
	}
	node := w.topo.NodeOf[r.id]
	now := r.clk.Now()
	f := 1.0
	for _, d := range w.degrades {
		if d.node == node && now >= d.from && now < d.until {
			f *= d.factor
		}
	}
	return f
}

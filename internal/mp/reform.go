// ULFM-style recovery primitives: failure agreement and world re-formation.
//
// MPI's User-Level Failure Mitigation proposal gives survivors of a node
// loss three verbs — revoke the communicator, agree on the dead set, and
// shrink to a survivor communicator. This file models the same sequence on
// the mp substrate: Reform revokes the poisoned world's pending traffic and
// re-forms the survivors, plus any replacement nodes the supervisor
// acquired, into a fresh World whose clocks carry the absolute virtual
// times at which each survivor observed the failure, and AgreeDead is the
// MPI_Comm_agree analogue the continuation runs as its first collective on
// the re-formed world.
//
// The network does not re-form with the job: the new world keeps the old
// fabric, so its traffic is priced on the same interconnect the job was
// placed on, and a replacement node joins that interconnect (on EC2, the
// same or an adjacent placement group: the caller picks each new node's).
package mp

import (
	"fmt"

	"heterohpc/internal/vclock"
)

// Reformed is the outcome of re-forming a poisoned world.
type Reformed struct {
	// World is the re-formed world: same fabric, the survivors' nodes then
	// the new ones, clocks seeded with each survivor's virtual time at
	// death-observation and each new rank's at the join time.
	World *World
	// NewToOld maps new rank -> old rank: the survivors in ascending
	// old-rank order, then -1 for each rank of a new node.
	NewToOld []int
	// OldToNewNode maps old node -> new node, -1 for dropped nodes: the
	// recorded failure node and the doomed ones.
	OldToNewNode []int
	// DeadRanks lists the dropped ranks ascending (old numbering).
	DeadRanks []int
	// NewNodes lists the appended nodes ascending (new numbering); they
	// follow every surviving node.
	NewNodes []int
	// Revoked counts the pending mailbox messages purged because they were
	// addressed to or sent by a dead rank — traffic a ULFM revoke would
	// have interrupted.
	Revoked int
}

// Reform re-forms a poisoned world around its survivors and, when capacity
// was acquired, replacement nodes. It must be called after Run has returned
// with ErrRankDead: the failed node's ranks are dropped, surviving ranks
// and nodes are renumbered order-preserving, pending mailbox traffic to or
// from the dead is revoked, and ranksPerNewNode[i] ranks are appended on a
// new node in placement group groupOfNewNode[i]. The old world is consumed
// (it cannot Run again); the re-formed world is fresh — it has no fault
// schedule, no observer, and may Run exactly once, with each survivor's
// clock continuing at the virtual time the rank had reached when it
// unwound and each new rank's starting at joinAt, the virtual time its
// node came online. It shares the old world's intern table.
//
// Besides the recorded failure node it also drops alsoDoomed — nodes the
// supervisor knows are about to be reclaimed (a preemption wave) even
// though only one failure actually poisoned the world. Dropping them and
// adding the replacements in one re-formation keeps recovery single-shot:
// one revoke, one new world, one continuation, instead of a step per
// casualty. Arguments are checked before the world is consumed.
func (w *World) Reform(alsoDoomed, ranksPerNewNode, groupOfNewNode []int, joinAt float64) (*Reformed, error) {
	f, down := w.Failure()
	if !down {
		return nil, fmt.Errorf("mp: Reform on a world that recorded no failure")
	}
	if w.consumed {
		return nil, fmt.Errorf("mp: world already re-formed")
	}
	if len(groupOfNewNode) != len(ranksPerNewNode) {
		return nil, fmt.Errorf("mp: Reform got %d rank counts but %d groups",
			len(ranksPerNewNode), len(groupOfNewNode))
	}
	for i, k := range ranksPerNewNode {
		if k < 1 {
			return nil, fmt.Errorf("mp: new node %d would hold %d ranks", i, k)
		}
	}
	if !(joinAt >= 0) {
		return nil, fmt.Errorf("mp: new nodes join at invalid virtual time %v", joinAt)
	}

	p := w.Size()
	nnodes := w.topo.NNodes()
	doomed := make([]bool, nnodes)
	doomed[f.Node] = true
	for _, n := range alsoDoomed {
		if n < 0 || n >= nnodes {
			return nil, fmt.Errorf("mp: doomed node %d of %d", n, nnodes)
		}
		doomed[n] = true
	}

	rf := &Reformed{OldToNewNode: make([]int, nnodes)}
	groups := make([]int, 0, nnodes+len(ranksPerNewNode))
	for n, g := range w.topo.GroupOfNode {
		rf.OldToNewNode[n] = -1
		if !doomed[n] {
			rf.OldToNewNode[n] = len(groups)
			groups = append(groups, g)
		}
	}
	var nodeOf []int
	for r := 0; r < p; r++ {
		if doomed[w.topo.NodeOf[r]] {
			rf.DeadRanks = append(rf.DeadRanks, r)
		} else {
			rf.NewToOld = append(rf.NewToOld, r)
			nodeOf = append(nodeOf, rf.OldToNewNode[w.topo.NodeOf[r]])
		}
	}
	if len(rf.NewToOld) == 0 {
		return nil, fmt.Errorf("mp: no survivors: failure node %d and doomed nodes %v held every rank", f.Node, alsoDoomed)
	}
	for i, k := range ranksPerNewNode {
		node := len(groups)
		rf.NewNodes = append(rf.NewNodes, node)
		groups = append(groups, groupOfNewNode[i])
		for j := 0; j < k; j++ {
			nodeOf = append(nodeOf, node)
			rf.NewToOld = append(rf.NewToOld, -1)
		}
	}
	w.consumed = true

	// Revoke: purge pending messages involving dead ranks. Deterministic —
	// the set of sent-but-unreceived messages at world death is a function
	// of the program and the fault schedule alone.
	dead := make([]bool, p)
	for _, r := range rf.DeadRanks {
		dead[r] = true
	}
	for owner, mb := range w.boxes {
		ownerDead := dead[owner]
		mb.mu.Lock()
		rf.Revoked += mb.revoke(func(src int) bool { return ownerDead || dead[src] })
		mb.mu.Unlock()
	}

	topo, err := NewTopology(nodeOf, groups)
	if err != nil {
		return nil, fmt.Errorf("mp: re-formed topology: %w", err)
	}
	nw, err := NewWorld(topo, w.fabric, w.rater)
	if err != nil {
		return nil, err
	}
	nw.interns = w.interns
	for newR, oldR := range rf.NewToOld {
		at := joinAt
		if oldR >= 0 {
			at = w.clocks[oldR].Now()
		}
		nw.clocks[newR] = vclock.NewAt(w.rater, at)
	}
	rf.World = nw
	return rf, nil
}

// AgreeDead is the deterministic agreement collective of ULFM recovery
// (the MPI_Comm_agree analogue): every survivor contributes its local
// suspicion bitmap over some shared index space (here: the pre-loss
// ranks) and all ranks return the identical union. Its cost — the
// synchronisation of survivor clocks frozen at different death-observation
// times plus the bitmap traffic — is charged through the fabric like any
// collective, so agreement latency appears in the recovery accounting.
func (r *Rank) AgreeDead(suspect []bool) []bool {
	v := make([]float64, len(suspect))
	for i, s := range suspect {
		if s {
			v[i] = 1
		}
	}
	out := r.Allreduce(OpMax, v)
	agreed := make([]bool, len(suspect))
	for i, x := range out {
		agreed[i] = x > 0
	}
	return agreed
}

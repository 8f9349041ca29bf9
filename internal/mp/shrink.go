// ULFM-style recovery primitives: failure agreement and world shrinking.
//
// MPI's User-Level Failure Mitigation proposal gives survivors of a node
// loss three verbs — revoke the communicator, agree on the dead set, and
// shrink to a survivor communicator. This file models the same sequence on
// the mp substrate: Shrink revokes the poisoned world's pending traffic and
// re-forms the survivors into a fresh World whose clocks carry the absolute
// virtual times at which each survivor observed the failure, and AgreeDead
// is the MPI_Comm_agree analogue the continuation runs as its first
// collective on the survivor world.
//
// The network does not shrink with the job: the survivor world keeps the
// old fabric, so post-shrink traffic is priced on the same interconnect the
// job was placed on.
package mp

import (
	"fmt"

	"heterohpc/internal/vclock"
)

// Shrink is the outcome of re-forming a poisoned world around its
// survivors.
type Shrink struct {
	// World is the survivor world: same fabric, survivor-only topology,
	// clocks seeded with each survivor's virtual time at death-observation.
	World *World
	// OldToNew maps old rank -> new rank, -1 for dead ranks; NewToOld is
	// the inverse (survivors in ascending old-rank order).
	OldToNew, NewToOld []int
	// OldToNewNode maps old node -> new node, -1 for dropped nodes.
	OldToNewNode []int
	// DeadRanks and DeadNode identify what was lost (old numbering).
	// DeadNode is the recorded failure node; DeadNodes lists every dropped
	// node ascending (equal to [DeadNode] for ShrinkNodes(nil)).
	DeadRanks []int
	DeadNode  int
	DeadNodes []int
	// Revoked counts the pending mailbox messages purged because they were
	// addressed to or sent by a dead rank — traffic a ULFM revoke would
	// have interrupted.
	Revoked int
}

// ShrinkNodes re-forms a poisoned world around its survivors. It must be
// called after Run has returned with ErrRankDead: the failed node's ranks
// are dropped, surviving ranks and nodes are renumbered order-preserving,
// and pending mailbox traffic to or from the dead is revoked. The old world
// is consumed (it cannot Run again); the survivor world is fresh — it has
// no fault schedule and may Run exactly once, with each rank's clock
// continuing at the virtual time the rank had reached when it unwound. It
// shares the old world's intern table.
//
// Besides the recorded failure node it also drops alsoDoomed — nodes the
// supervisor knows are about to be reclaimed (a preemption wave) even
// though only one failure actually poisoned the world. Dropping them in one
// re-formation keeps recovery single-shot: one revoke, one survivor world,
// one continuation, instead of a shrink per casualty.
func (w *World) ShrinkNodes(alsoDoomed []int) (*Shrink, error) {
	f, down := w.Failure()
	if !down {
		return nil, fmt.Errorf("mp: Shrink on a world that recorded no failure")
	}
	if w.shrunk {
		return nil, fmt.Errorf("mp: world already shrunk")
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
	w.shrunk = true

	sr := &Shrink{
		OldToNew:     make([]int, p),
		OldToNewNode: make([]int, nnodes),
		DeadNode:     f.Node,
	}
	next := 0
	for n := 0; n < nnodes; n++ {
		if doomed[n] {
			sr.OldToNewNode[n] = -1
			sr.DeadNodes = append(sr.DeadNodes, n)
			continue
		}
		sr.OldToNewNode[n] = next
		next++
	}
	for r := 0; r < p; r++ {
		if doomed[w.topo.NodeOf[r]] {
			sr.OldToNew[r] = -1
			sr.DeadRanks = append(sr.DeadRanks, r)
			continue
		}
		sr.OldToNew[r] = len(sr.NewToOld)
		sr.NewToOld = append(sr.NewToOld, r)
	}
	if len(sr.NewToOld) == 0 {
		return nil, fmt.Errorf("mp: no survivors: node(s) %v held every rank", sr.DeadNodes)
	}

	// Revoke: purge pending messages involving dead ranks. Deterministic —
	// the set of sent-but-unreceived messages at world death is a function
	// of the program and the fault schedule alone.
	dead := make([]bool, p)
	for _, r := range sr.DeadRanks {
		dead[r] = true
	}
	for owner, mb := range w.boxes {
		ownerDead := dead[owner]
		mb.mu.Lock()
		sr.Revoked += mb.revoke(func(src int) bool { return ownerDead || dead[src] })
		mb.mu.Unlock()
	}

	nodeOf := make([]int, len(sr.NewToOld))
	groups := make([]int, 0, nnodes-len(sr.DeadNodes))
	for n, g := range w.topo.GroupOfNode {
		if !doomed[n] {
			groups = append(groups, g)
		}
	}
	for newR, oldR := range sr.NewToOld {
		nodeOf[newR] = sr.OldToNewNode[w.topo.NodeOf[oldR]]
	}
	topo, err := NewTopology(nodeOf, groups)
	if err != nil {
		return nil, fmt.Errorf("mp: survivor topology: %w", err)
	}
	nw, err := NewWorld(topo, w.fabric, w.rater)
	if err != nil {
		return nil, err
	}
	nw.interns = w.interns
	for newR, oldR := range sr.NewToOld {
		nw.clocks[newR] = vclock.NewAt(w.rater, w.clocks[oldR].Now())
	}
	sr.World = nw
	return sr, nil
}

// AgreeDead is the deterministic agreement collective of ULFM recovery
// (the MPI_Comm_agree analogue): every survivor contributes its local
// suspicion bitmap over some shared index space (here: the pre-shrink
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

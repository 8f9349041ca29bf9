// Elastic-world growth: the dual of Shrink.
//
// Shrink (shrink.go) re-forms a poisoned world around its survivors. Grow
// re-forms a healthy world around its ranks plus freshly provisioned
// replacement nodes: the proactive half of preemption recovery, where the
// supervisor uses the spot-market notice window to evacuate a doomed node's
// state, acquire a replacement, and continue at full width instead of
// degrading. Surviving ranks keep their rank numbers and their mailboxes
// (with the warm per-source slots, queues and links), and their clocks
// carry their absolute virtual times via vclock.NewAt — the same
// continuation contract Shrink established. New ranks start with fresh
// mailboxes and clocks seeded at startAt, the virtual time at which their
// node came online.
//
// As with Shrink, the network does not re-form with the job: the grown world
// keeps the old fabric, modelling a replacement instance joining the same
// interconnect (and, on EC2, the same or an adjacent placement group — the
// group of each new node is the caller's choice).
package mp

import (
	"fmt"

	"heterohpc/internal/vclock"
)

// Grow is the outcome of extending a world with replacement nodes.
type Grow struct {
	// World is the grown world: same fabric, extended topology, survivor
	// clocks carried at their absolute virtual times and new-rank clocks
	// seeded at the growth time.
	World *World
	// NewNodes lists the appended nodes, ascending. Growth never renumbers:
	// old ranks keep their numbers and the joiners follow them.
	NewNodes []int
	// Revoked counts stale mailbox messages purged during the transplant —
	// payloads sent but never received before the old world completed.
	// Zero for any well-formed SPMD body.
	Revoked int
}

// Grow extends a healthy, completed world with replacement capacity:
// ranksPerNewNode[i] ranks are added on a new node in placement group
// groupOfNewNode[i], appended after the existing nodes. Existing ranks keep
// their numbers and mailboxes; their clocks continue at their absolute
// virtual times. New ranks get clocks seeded at startAt (the
// virtual time their node was provisioned). The old world is consumed — it
// cannot Run again; the grown world is fresh: it has no fault schedule, no
// observer, and may Run exactly once. It shares the old world's intern
// table.
//
// Grow refuses a poisoned world: a world that recorded a failure has dead
// ranks that must be dropped first, so the recovery sequence there is
// Shrink (drop the dead) and then, capacity permitting, Grow (restore the
// width).
func (w *World) Grow(ranksPerNewNode, groupOfNewNode []int, startAt float64) (*Grow, error) {
	if _, down := w.Failure(); down {
		return nil, fmt.Errorf("mp: Grow on a poisoned world; Shrink it first")
	}
	if w.shrunk {
		return nil, fmt.Errorf("mp: world already consumed by Shrink or Grow")
	}
	if len(ranksPerNewNode) == 0 {
		return nil, fmt.Errorf("mp: Grow with no new nodes")
	}
	if len(groupOfNewNode) != len(ranksPerNewNode) {
		return nil, fmt.Errorf("mp: Grow got %d rank counts but %d groups",
			len(ranksPerNewNode), len(groupOfNewNode))
	}
	if startAt < 0 {
		return nil, fmt.Errorf("mp: Grow at negative virtual time %v", startAt)
	}
	p := w.Size()
	nnodes := w.topo.NNodes()
	added := 0
	for i, k := range ranksPerNewNode {
		if k < 1 {
			return nil, fmt.Errorf("mp: new node %d would hold %d ranks", i, k)
		}
		added += k
	}
	w.shrunk = true

	gr := new(Grow)
	nodeOf := make([]int, p, p+added)
	copy(nodeOf, w.topo.NodeOf)
	groups := make([]int, nnodes, nnodes+len(ranksPerNewNode))
	copy(groups, w.topo.GroupOfNode)
	for i, k := range ranksPerNewNode {
		node := nnodes + i
		gr.NewNodes = append(gr.NewNodes, node)
		groups = append(groups, groupOfNewNode[i])
		for j := 0; j < k; j++ {
			nodeOf = append(nodeOf, node)
		}
	}
	topo, err := NewTopology(nodeOf, groups)
	if err != nil {
		return nil, fmt.Errorf("mp: grown topology: %w", err)
	}

	nw, err := NewWorld(topo, w.fabric, w.rater)
	if err != nil {
		return nil, err
	}
	nw.interns = w.interns
	// Transplant the surviving ranks' mailboxes: repoint them at the grown
	// world and purge any stale payloads, keeping the per-source slots, their
	// queues and the links warm — the same sources and tags recur after the
	// growth because rank numbers are stable under Grow, and a joiner enters
	// the map with its first message. Filed senders go with the payloads:
	// an old world whose body ended early can leave some behind, and the
	// grown world's collective tags start over. The joiners keep the fresh
	// mailboxes NewWorld made.
	for i := 0; i < p; i++ {
		mb := w.boxes[i]
		mb.mu.Lock()
		mb.w = nw
		gr.Revoked += mb.revoke(func(int) bool { return true })
		mb.filed = nil
		mb.mu.Unlock()
		nw.boxes[i] = mb
		nw.clocks[i] = vclock.NewAt(w.rater, w.clocks[i].Now())
	}
	for i := p; i < p+added; i++ {
		nw.clocks[i] = vclock.NewAt(w.rater, startAt)
	}

	gr.World = nw
	return gr, nil
}

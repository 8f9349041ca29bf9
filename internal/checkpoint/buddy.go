// Diskless buddy checkpointing: instead of (or in addition to) writing
// containers to stable storage, every rank mirrors its serialised snapshot
// to a partner rank on a different node, as real mp traffic. A node loss
// then takes out each dead rank's local copy but not the mirror, so a
// shrink-and-continue recovery can rebuild the full field from memory
// without any restart. The mirroring cost rides the network model, so the
// protection overhead is visible in virtual time and dollars.
package checkpoint

import "heterohpc/internal/mp"

// BuddyOf returns the rank holding rank's diskless checkpoint mirror: the
// rank occupying the same within-node slot on the next node (wrapping), so
// a buddy is always off-node and a single node loss never takes both
// copies. When nodes hold unequal rank counts the slot wraps within the
// buddy node, so a holder may protect several origins. Returns -1 on
// single-node topologies, where no off-node partner exists.
func BuddyOf(topo mp.Topology, rank int) int {
	nnodes := topo.NNodes()
	if nnodes < 2 {
		return -1
	}
	node := topo.NodeOf[rank]
	slot := 0
	for r := 0; r < rank; r++ {
		if topo.NodeOf[r] == node {
			slot++
		}
	}
	buddyNode := (node + 1) % nnodes
	var onBuddy []int
	for r := 0; r < topo.NRanks(); r++ {
		if topo.NodeOf[r] == buddyNode {
			onBuddy = append(onBuddy, r)
		}
	}
	return onBuddy[slot%len(onBuddy)]
}

// Protects returns, in ascending order, the origin ranks whose buddy
// copies the holder rank stores under the BuddyOf mapping.
func Protects(topo mp.Topology, holder int) []int {
	var out []int
	for r := 0; r < topo.NRanks(); r++ {
		if BuddyOf(topo, r) == holder {
			out = append(out, r)
		}
	}
	return out
}

// Mirrored is one buddy copy received during a Mirror exchange.
type Mirrored struct {
	// Origin is the rank whose snapshot this is.
	Origin int
	// Blob is the serialised container exactly as the origin wrote it.
	Blob []byte
}

// Mirror runs one round of the diskless exchange: the calling rank sends
// blob to its buddy and receives the snapshot of every origin it protects,
// in ascending origin order. All ranks of the world must call Mirror with
// the same tag each round; sends are buffered, so the exchange cannot
// deadlock. On single-node topologies it is a no-op returning nil.
//
// The blob is handed over, not copied (see mp.Send): after the call the
// sender and its buddy hold the same bytes, so neither may write them.
func Mirror(r *mp.Rank, tag int, blob []byte) []Mirrored {
	topo := r.Topology()
	if b := BuddyOf(topo, r.ID()); b >= 0 {
		mp.Send(r, b, tag, blob)
	}
	var out []Mirrored
	for _, origin := range Protects(topo, r.ID()) {
		out = append(out, Mirrored{Origin: origin, Blob: mp.Recv[byte](r, origin, tag)})
	}
	return out
}

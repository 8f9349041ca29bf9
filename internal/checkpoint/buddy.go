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
//
// It takes O(P): one scan of the topology for rank's slot and the buddy
// node's size, and one up to the chosen rank. It allocates nothing.
func BuddyOf(topo mp.Topology, rank int) int {
	nnodes := topo.NNodes()
	if nnodes < 2 {
		return -1
	}
	node := topo.NodeOf[rank]
	buddyNode := (node + 1) % nnodes
	slot, size := 0, 0
	for r, n := range topo.NodeOf {
		if n == node && r < rank {
			slot++
		}
		if n == buddyNode {
			size++
		}
	}
	// The buddy is the buddy node's rank in slot slot mod size.
	k := slot % size
	for r, n := range topo.NodeOf {
		if n == buddyNode {
			if k == 0 {
				return r
			}
			k--
		}
	}
	panic("checkpoint: the buddy node holds fewer ranks than counted")
}

// Protects returns, in ascending order, the origin ranks whose buddy
// copies the holder rank stores under the BuddyOf mapping: the ranks of the
// previous node whose slot, wrapped to the holder node's size, is the
// holder's. It takes O(P), one scan to count and one to collect, and
// allocates only its result, nil when there is none.
func Protects(topo mp.Topology, holder int) []int {
	nnodes := topo.NNodes()
	if nnodes < 2 {
		return nil
	}
	node := topo.NodeOf[holder]
	from := (node - 1 + nnodes) % nnodes
	slot, size, origins := 0, 0, 0
	for r, n := range topo.NodeOf {
		if n == node {
			if r < holder {
				slot++
			}
			size++
		}
		if n == from {
			origins++
		}
	}
	// Origin slots slot, slot+size, slot+2·size, ... below origins.
	if slot >= origins {
		return nil
	}
	out := make([]int, 0, (origins-slot+size-1)/size)
	k := 0
	for r, n := range topo.NodeOf {
		if n == from {
			if k%size == slot {
				out = append(out, r)
			}
			k++
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
	origins := Protects(topo, r.ID())
	if origins == nil {
		return nil
	}
	out := make([]Mirrored, len(origins))
	for i, origin := range origins {
		out[i] = Mirrored{Origin: origin, Blob: mp.Recv[byte](r, origin, tag)}
	}
	return out
}

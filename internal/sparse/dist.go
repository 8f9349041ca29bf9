package sparse

import (
	"fmt"
	"slices"
	"sort"

	"heterohpc/internal/idindex"
	"heterohpc/internal/mp"
)

// RowMap records which global rows (mesh vertices) this rank owns. Owned
// ids are sorted; local row i is Owned[i]. LocalOf, the inverse, is an
// idindex.Index over them: O(1) over the span of a structured block, a
// binary search where the ids are scattered, and in memory proportional to
// the owned count either way. It is immutable once built and holds nothing of
// the matrices built over it: what they share is interned in their world (see
// NewDistMatrix).
type RowMap struct {
	Owned []int
	ix    idindex.Index
}

// NewRowMap builds a row map from the (copied, sorted) owned global ids,
// which must be distinct.
func NewRowMap(owned []int) *RowMap {
	cp := append([]int(nil), owned...)
	sort.Ints(cp)
	return RowMapOf(idindex.New(cp))
}

// RowMapOf builds a row map over an index of the owned global ids, sharing
// it: a mesh.Local's owned section serves as its space's row map.
func RowMapOf(ix idindex.Index) *RowMap {
	return &RowMap{Owned: ix.IDs(), ix: ix}
}

// N returns the owned row count.
func (m *RowMap) N() int { return len(m.Owned) }

// LocalOf returns the local index of global row g, if owned.
func (m *RowMap) LocalOf(g int) (int, bool) { return m.ix.Lookup(g) }

// Importer moves owned vector values to the ranks that hold them as ghosts
// (the Epetra_Import role). Construction performs a scalable handshake:
// requesters know their ghost owners locally; owners learn their requesters
// through one indicator-vector Allreduce followed by neighbour-only
// messages, so no all-to-all traffic is needed even at 1000 ranks. It then
// opens one persistent mp.Link per peer and direction, and every exchange
// runs on those: its peers, tag and sizes never change.
type Importer struct {
	r      *mp.Rank
	nOwned int
	nGhost int
	// sends[i]: owned local indices to pack for peer sendPeers[i].
	sendPeers []int
	sends     [][]int
	// recvs[i]: ghost local positions filled from peer recvPeers[i], in the
	// order that peer packs them.
	recvPeers []int
	recvs     [][]int
	// Exchange sends on toSend[i] (to sendPeers[i]) and receives on
	// fromRecv[i] (from recvPeers[i]); ExportAdd runs the other way, sending
	// on toRecv[i] and receiving on fromSend[i]. Where a peer is in both
	// lists the two directions to it share one link.
	toSend, fromRecv, toRecv, fromSend []*mp.Link
	// sendB/recvB cache the total payload bytes one Exchange (resp. the
	// send half of ExportAdd) puts on the wire, for the observer.
	sendB, recvB int
	// ghostGlobal keeps the ghost ids this importer serves, so structurally
	// identical matrices can verify compatibility and share the importer
	// (see NewDistMatrixLike).
	ghostGlobal []int
}

// NewImporter builds an importer for a vector laid out as [owned | ghosts].
// ghostGlobal lists the ghost global ids in their local order (position
// nOwned+i); owner maps any global id to its owning rank; tag reserves two
// message tags (tag, tag+1) for this importer, which must lie in
// [0, refillTag); the halo exchange runs under tag+1 (the handshake that
// sets it up is a collective and uses neither).
func NewImporter(r *mp.Rank, rowMap *RowMap, ghostGlobal []int, owner func(int) int, tag int) (*Importer, error) {
	if err := checkTags(tag, 2); err != nil {
		return nil, err
	}
	im := &Importer{r: r, nOwned: rowMap.N(), nGhost: len(ghostGlobal)}

	// Group ghost positions by owning rank: one counting pass sizes the
	// per-peer groups exactly, so the second pass fills two flat backing
	// arrays without append growth.
	counts := map[int]int{} // owner -> ghost count
	for _, g := range ghostGlobal {
		o := owner(g)
		if o == r.ID() {
			return nil, fmt.Errorf("sparse: ghost %d owned by requester %d", g, o)
		}
		if o < 0 || o >= r.Size() {
			return nil, fmt.Errorf("sparse: ghost %d has invalid owner %d", g, o)
		}
		counts[o]++
	}
	im.recvPeers = sortedIntKeys(counts)
	peerIdx := make(map[int]int, len(im.recvPeers))
	im.recvs = make([][]int, len(im.recvPeers))
	reqIDs := make([][]int, len(im.recvPeers))
	flatPos := make([]int, len(ghostGlobal))
	flatIDs := make([]int, len(ghostGlobal))
	off := 0
	for i, p := range im.recvPeers {
		peerIdx[p] = i
		im.recvs[i] = flatPos[off : off : off+counts[p]]
		reqIDs[i] = flatIDs[off : off : off+counts[p]]
		off += counts[p]
	}
	for i, g := range ghostGlobal {
		pi := peerIdx[owner(g)]
		im.recvs[pi] = append(im.recvs[pi], im.nOwned+i)
		reqIDs[pi] = append(reqIDs[pi], g)
	}

	// Request the ghosts of their owners and learn who requests ours; a
	// request's ids become the local indices to pack for it, in place.
	im.sendPeers, im.sends = r.ExchangeInts(im.recvPeers, func(i int) []int { return reqIDs[i] })
	for i, ids := range im.sends {
		for j, g := range ids {
			l, ok := rowMap.LocalOf(g)
			if !ok {
				return nil, fmt.Errorf("sparse: rank %d asked rank %d for unowned row %d",
					im.sendPeers[i], r.ID(), g)
			}
			ids[j] = l
		}
		im.sendB += 8 * len(ids)
	}
	for _, pos := range im.recvs {
		im.recvB += 8 * len(pos)
	}
	// A link to a peer in both lists carries both directions' payloads, so
	// it is as wide as the larger.
	width := func(p int) int {
		n := 0
		if i, ok := slices.BinarySearch(im.sendPeers, p); ok {
			n = len(im.sends[i])
		}
		if i, ok := slices.BinarySearch(im.recvPeers, p); ok {
			n = max(n, len(im.recvs[i]))
		}
		return n
	}
	ns, nr := len(im.sendPeers), len(im.recvPeers)
	links := make([]*mp.Link, 2*(ns+nr))
	im.toSend, im.fromSend, links = links[:ns:ns], links[ns:2*ns:2*ns], links[2*ns:]
	im.toRecv, im.fromRecv = links[:nr:nr], links[nr:]
	for i, p := range im.sendPeers {
		im.toSend[i], im.fromSend[i] = r.LinkTo(p, tag+1, width(p)), r.LinkFrom(p, tag+1)
	}
	for i, p := range im.recvPeers {
		im.toRecv[i], im.fromRecv[i] = r.LinkTo(p, tag+1, width(p)), r.LinkFrom(p, tag+1)
	}
	im.ghostGlobal = append([]int(nil), ghostGlobal...)
	return im, nil
}

// NOwned returns the owned prefix length of vectors this importer serves.
func (im *Importer) NOwned() int { return im.nOwned }

// NGhost returns the ghost tail length.
func (im *Importer) NGhost() int { return im.nGhost }

// Exchange fills the ghost tail of x (layout [owned | ghosts]) with the
// owners' current values. All ranks sharing the importer must call it
// together.
func (im *Importer) Exchange(x []float64) {
	if len(x) < im.nOwned+im.nGhost {
		panic(fmt.Sprintf("sparse: Exchange vector len %d < %d", len(x), im.nOwned+im.nGhost))
	}
	im.r.Obs().CountHalo(im.sendB)
	for i, l := range im.toSend {
		im.r.SendGather(l, x, im.sends[i])
	}
	for i, l := range im.fromRecv {
		im.r.RecvScatter(l, x, im.recvs[i])
	}
}

// ExportAdd is the reverse operation (the Epetra_Export role): ghost-slot
// contributions in x are sent to their owners and added into the owners'
// owned entries; the local ghost tail is zeroed afterwards. Used for
// assembling right-hand sides whose element integrals straddle ranks.
func (im *Importer) ExportAdd(x []float64) {
	if len(x) < im.nOwned+im.nGhost {
		panic(fmt.Sprintf("sparse: ExportAdd vector len %d < %d", len(x), im.nOwned+im.nGhost))
	}
	im.r.Obs().CountHalo(im.recvB)
	for i, l := range im.toRecv {
		pos := im.recvs[i]
		im.r.SendGather(l, x, pos)
		for _, k := range pos {
			x[k] = 0
		}
	}
	for i, l := range im.fromSend {
		im.r.RecvAddScatter(l, x, im.sends[i])
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedIntKeys(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

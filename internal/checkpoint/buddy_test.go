package checkpoint

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/stats"
	"heterohpc/internal/vclock"
)

func buddyTopo(t *testing.T, nranks, perNode int) mp.Topology {
	t.Helper()
	topo, err := mp.BlockTopology(nranks, perNode)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuddyOfIsOffNodeAndCovering(t *testing.T) {
	cases := []struct{ nranks, perNode int }{
		{8, 2},  // 4 equal nodes
		{8, 4},  // 2 equal nodes
		{27, 4}, // unequal last node (3 ranks)
		{5, 2},  // unequal last node (1 rank)
	}
	for _, c := range cases {
		topo := buddyTopo(t, c.nranks, c.perNode)
		covered := make([]bool, c.nranks)
		for r := 0; r < c.nranks; r++ {
			b := BuddyOf(topo, r)
			if b < 0 || b >= c.nranks {
				t.Fatalf("%d/%d: BuddyOf(%d) = %d out of range", c.nranks, c.perNode, r, b)
			}
			if topo.SameNode(r, b) {
				t.Fatalf("%d/%d: buddy of rank %d is on-node", c.nranks, c.perNode, r)
			}
			covered[r] = true
			found := false
			for _, o := range Protects(topo, b) {
				if o == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("%d/%d: Protects(%d) misses origin %d", c.nranks, c.perNode, b, r)
			}
		}
		for r, ok := range covered {
			if !ok {
				t.Fatalf("rank %d has no buddy", r)
			}
		}
	}
}

func TestBuddyOfSingleNode(t *testing.T) {
	topo := buddyTopo(t, 4, 4)
	if b := BuddyOf(topo, 2); b != -1 {
		t.Fatalf("single-node buddy = %d, want -1", b)
	}
	if p := Protects(topo, 2); p != nil {
		t.Fatalf("single-node Protects = %v, want none", p)
	}
}

func TestMirrorDeliversBlobsAndChargesTime(t *testing.T) {
	topo := buddyTopo(t, 6, 2)
	fab, err := netmodel.NewFabric(netmodel.TenGigE, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int][]Mirrored{}
	if err := w.Run(func(r *mp.Rank) error {
		blob := []byte(fmt.Sprintf("snapshot-of-%d", r.ID()))
		rcv := Mirror(r, 9000, blob)
		if r.Wtime() <= 0 {
			return fmt.Errorf("rank %d: mirroring charged no virtual time", r.ID())
		}
		mu.Lock()
		got[r.ID()] = rcv
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for origin := 0; origin < 6; origin++ {
		holder := BuddyOf(topo, origin)
		want := fmt.Sprintf("snapshot-of-%d", origin)
		found := false
		for _, m := range got[holder] {
			if m.Origin == origin && string(m.Blob) == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("holder %d did not receive origin %d's blob", holder, origin)
		}
	}
}

// refBuddyOf is BuddyOf as it was: the slot counted by a scan of the ranks
// before rank, the buddy node's ranks gathered by a second scan. It is the
// oracle for the counting lookup.
func refBuddyOf(topo mp.Topology, rank int) int {
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

// refProtects is Protects as it was: refBuddyOf of every rank.
func refProtects(topo mp.Topology, holder int) []int {
	var out []int
	for r := 0; r < topo.NRanks(); r++ {
		if refBuddyOf(topo, r) == holder {
			out = append(out, r)
		}
	}
	return out
}

// TestBuddyLookupsMatchScanReference holds BuddyOf and Protects to the
// scans they replaced on 1 to 6 nodes: block placements with a short last
// node, and seeded interleaved placements whose nodes hold from one rank to
// many times their neighbours' count, so slots wrap on the buddy node and
// holders protect zero, one or several origins.
func TestBuddyLookupsMatchScanReference(t *testing.T) {
	rng := stats.NewRNG(20261020)
	var topos []mp.Topology
	for nnodes := 1; nnodes <= 6; nnodes++ {
		for _, perNode := range []int{1, 2, 3, 5} {
			topos = append(topos, buddyTopo(t, nnodes*perNode-perNode/2, perNode))
		}
		for trial := 0; trial < 8; trial++ {
			// Every node gets at least one rank; the rest land anywhere, and
			// the placement is shuffled so ranks of a node interleave.
			nodeOf := make([]int, 0, 4*nnodes)
			for n := 0; n < nnodes; n++ {
				nodeOf = append(nodeOf, n)
			}
			for extra := rng.Intn(3 * nnodes); extra > 0; extra-- {
				nodeOf = append(nodeOf, rng.Intn(nnodes))
			}
			perm := rng.Perm(len(nodeOf))
			shuffled := make([]int, len(nodeOf))
			for i, j := range perm {
				shuffled[j] = nodeOf[i]
			}
			topo, err := mp.NewTopology(shuffled, make([]int, nnodes))
			if err != nil {
				t.Fatal(err)
			}
			topos = append(topos, topo)
		}
	}
	for _, topo := range topos {
		for r := 0; r < topo.NRanks(); r++ {
			if got, want := BuddyOf(topo, r), refBuddyOf(topo, r); got != want {
				t.Fatalf("placement %v: BuddyOf(%d) = %d, reference %d", topo.NodeOf, r, got, want)
			}
			got, want := Protects(topo, r), refProtects(topo, r)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) || cap(got) != len(got) {
				t.Fatalf("placement %v: Protects(%d) = %v (cap %d), reference %v", topo.NodeOf, r, got, cap(got), want)
			}
		}
	}
}

// TestBuddyOfZeroAlloc: a buddy lookup allocates nothing, on an even and
// on a short-last-node placement.
func TestBuddyOfZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	for _, topo := range []mp.Topology{buddyTopo(t, 64, 8), buddyTopo(t, 27, 4)} {
		if a := testing.AllocsPerRun(100, func() { BuddyOf(topo, topo.NRanks()-1) }); a != 0 {
			t.Errorf("%d ranks: BuddyOf makes %v allocations, want 0", topo.NRanks(), a)
		}
	}
}

// TestProtectsAllocatesOnlyItsResult: Protects makes one allocation, the
// slice it returns, whether it holds one origin or several.
func TestProtectsAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	// 27 ranks 4 to a node: node 6 holds 3, so holder 24 on node 6
	// protects origins 20 (slot 0) and 23 (slot 3) of node 5.
	for _, c := range []struct{ nranks, perNode, holder, origins int }{{64, 8, 63, 1}, {27, 4, 24, 2}, {27, 4, 0, 1}} {
		topo := buddyTopo(t, c.nranks, c.perNode)
		if got := len(Protects(topo, c.holder)); got != c.origins {
			t.Fatalf("%d/%d: holder %d protects %d origins, want %d", c.nranks, c.perNode, c.holder, got, c.origins)
		}
		if a := testing.AllocsPerRun(100, func() { Protects(topo, c.holder) }); a != 1 {
			t.Errorf("%d/%d: Protects(%d) makes %v allocations, want 1", c.nranks, c.perNode, c.holder, a)
		}
	}
}

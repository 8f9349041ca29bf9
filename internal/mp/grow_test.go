package mp

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// healthyWorld runs a short charge/allreduce loop to completion so the
// world's clocks have advanced and its resident queues are warm, then
// returns it ready for Grow.
func healthyWorld(t *testing.T, nranks, perNode int) *World {
	t.Helper()
	w := faultWorld(t, nranks, perNode)
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		for i := 0; i < 4; i++ {
			r.ChargeCompute(1e6, 0)
			r.AllreduceScalar(OpSum, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGrowAppendsRanksAndCarriesClocks(t *testing.T) {
	w := healthyWorld(t, 6, 2) // 3 nodes of 2
	oldNow := make([]float64, 6)
	for r, c := range w.Clocks() {
		oldNow[r] = c.Now()
		if oldNow[r] <= 0 {
			t.Fatalf("rank %d clock never advanced", r)
		}
	}
	const startAt = 123.5
	gr, err := w.Grow([]int{2}, []int{0}, startAt)
	if err != nil {
		t.Fatal(err)
	}
	if got := gr.World.Size(); got != 8 {
		t.Fatalf("grown world has %d ranks, want 8", got)
	}
	if got := gr.World.Topology().NNodes(); got != 4 {
		t.Fatalf("grown world has %d nodes, want 4", got)
	}
	// Growth never renumbers: identity for old ranks, -1 for joiners.
	for r := 0; r < 6; r++ {
		if gr.OldToNew[r] != r || gr.NewToOld[r] != r {
			t.Fatalf("rank %d renumbered: OldToNew=%d NewToOld=%d",
				r, gr.OldToNew[r], gr.NewToOld[r])
		}
	}
	for r := 6; r < 8; r++ {
		if gr.NewToOld[r] != -1 {
			t.Fatalf("joiner rank %d has NewToOld %d, want -1", r, gr.NewToOld[r])
		}
	}
	if len(gr.NewRanks) != 2 || gr.NewRanks[0] != 6 || gr.NewRanks[1] != 7 {
		t.Fatalf("NewRanks %v, want [6 7]", gr.NewRanks)
	}
	if len(gr.NewNodes) != 1 || gr.NewNodes[0] != 3 {
		t.Fatalf("NewNodes %v, want [3]", gr.NewNodes)
	}
	// The new ranks live together on the appended node.
	topo := gr.World.Topology()
	if topo.NodeOf[6] != 3 || topo.NodeOf[7] != 3 {
		t.Fatalf("joiner ranks on nodes %d,%d, want 3,3", topo.NodeOf[6], topo.NodeOf[7])
	}
	// Old clocks carry their absolute times; joiners start at startAt.
	for r := 0; r < 6; r++ {
		if got := gr.World.Clocks()[r].Now(); got != oldNow[r] {
			t.Fatalf("rank %d clock %v, want carried %v", r, got, oldNow[r])
		}
	}
	for r := 6; r < 8; r++ {
		if got := gr.World.Clocks()[r].Now(); got != startAt {
			t.Fatalf("joiner rank %d clock %v, want %v", r, got, startAt)
		}
	}
	// Transplanted mailboxes point at the grown world.
	for r := 0; r < 6; r++ {
		mb := gr.World.boxes[r]
		if mb != w.boxes[r] {
			t.Fatalf("rank %d mailbox was not transplanted", r)
		}
		if mb.w != gr.World {
			t.Fatalf("rank %d mailbox still points at the old world", r)
		}
	}
	// The consumed world cannot run again; the grown world runs a
	// collective spanning old and new ranks (joiner 6 reduces into the
	// transplanted mailbox of rank 4) and the joiners' directed messages
	// reach transplanted mailboxes too.
	if err := w.Run(func(r *Rank) error { return nil }); err == nil {
		t.Fatal("consumed world accepted Run")
	}
	if _, err := w.Grow([]int{1}, []int{0}, 0); err == nil {
		t.Fatal("double Grow accepted")
	}
	var mu sync.Mutex
	sums := make([]float64, 8)
	err = runWithDeadline(t, gr.World, 30*time.Second, func(r *Rank) error {
		s := r.AllreduceScalar(OpSum, float64(r.ID()))
		mu.Lock()
		sums[r.ID()] = s
		mu.Unlock()
		switch id := r.ID(); {
		case id >= 6:
			r.SendF64(id-6, 5, []float64{float64(id)})
		case id < 2:
			if got := r.RecvF64(id+6, 5); len(got) != 1 || got[0] != float64(id+6) {
				return fmt.Errorf("rank %d got %v from joiner %d", id, got, id+6)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range sums {
		if s != 28 { // 0+1+...+7
			t.Fatalf("rank %d allreduce sum %v, want 28", r, s)
		}
	}
	// Joiner clocks moved past their seed once they communicated.
	if got := gr.World.Clocks()[7].Now(); got <= startAt {
		t.Fatalf("joiner clock %v did not advance past seed %v", got, startAt)
	}
}

func TestGrowRefusesPoisonedAndBadArgs(t *testing.T) {
	// A poisoned world must Shrink before it can Grow.
	w := crashWorld(t, 4, 2, 1, 0.005)
	if _, err := w.Grow([]int{2}, []int{0}, 1); err == nil {
		t.Fatal("Grow on a poisoned world accepted")
	}
	h := healthyWorld(t, 4, 2)
	if _, err := h.Grow(nil, nil, 1); err == nil {
		t.Fatal("Grow with no new nodes accepted")
	}
	if _, err := h.Grow([]int{1}, []int{0, 0}, 1); err == nil {
		t.Fatal("mismatched rank/group lengths accepted")
	}
	if _, err := h.Grow([]int{0}, []int{0}, 1); err == nil {
		t.Fatal("empty new node accepted")
	}
	if _, err := h.Grow([]int{1}, []int{0}, -1); err == nil {
		t.Fatal("negative growth time accepted")
	}
	// The failed attempts above must not have consumed the world.
	if _, err := h.Grow([]int{1}, []int{0}, 1); err != nil {
		t.Fatalf("valid Grow after rejected args failed: %v", err)
	}
}

func TestGrowAfterShrinkRestoresWidth(t *testing.T) {
	// The proactive-recovery sequence: poison, shrink to survivors, grow
	// back to full width on a replacement node, then run a collective that
	// spans everyone.
	w := crashWorld(t, 8, 2, 1, 0.005) // kills ranks 2,3
	sr, err := w.ShrinkNodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	growAt := sr.World.Clocks()[0].Now() + 1
	gr, err := sr.World.Grow([]int{2}, []int{0}, growAt)
	if err != nil {
		t.Fatal(err)
	}
	if got := gr.World.Size(); got != 8 {
		t.Fatalf("regrown world has %d ranks, want 8", got)
	}
	if got := gr.World.Topology().NNodes(); got != 4 {
		t.Fatalf("regrown world has %d nodes, want 4", got)
	}
	// Survivor clocks still carry their pre-shrink absolute times through
	// both re-formations.
	for newR, oldR := range sr.NewToOld {
		if got, want := gr.World.Clocks()[newR].Now(), w.Clocks()[oldR].Now(); got != want {
			t.Fatalf("rank %d clock %v, want carried %v", newR, got, want)
		}
	}
	err = runWithDeadline(t, gr.World, 30*time.Second, func(r *Rank) error {
		r.AllreduceScalar(OpSum, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGrowSingleRankWorld(t *testing.T) {
	// The degenerate base: one rank on one node grows to two nodes.
	w := faultWorld(t, 1, 1)
	if err := w.Run(func(r *Rank) error { r.ChargeCompute(1e6, 0); return nil }); err != nil {
		t.Fatal(err)
	}
	gr, err := w.Grow([]int{1}, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gr.World.Size() != 2 {
		t.Fatalf("grown world has %d ranks, want 2", gr.World.Size())
	}
	err = runWithDeadline(t, gr.World, 30*time.Second, func(r *Rank) error {
		if s := r.AllreduceScalar(OpSum, 1); s != 2 {
			t.Errorf("allreduce %v, want 2", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPriceBytesMatchesSendCharge(t *testing.T) {
	w := healthyWorld(t, 4, 2)
	const payload = 8192
	// Same formula as chargeSend: header overhead, node/group locality and
	// NIC sharing all included.
	want := w.fabric.P2P(payload+msgHeaderBytes,
		w.topo.SameNode(0, 2), w.topo.SameGroup(0, 2), w.topo.NICShare(0))
	if got := w.PriceBytes(0, 2, payload); got != want {
		t.Fatalf("PriceBytes(0,2,%d) = %v, want %v", payload, got, want)
	}
	if w.PriceBytes(0, 1, payload) >= w.PriceBytes(0, 2, payload) {
		t.Fatal("intra-node transfer not cheaper than inter-node")
	}
}

package mp

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// crashWorld runs a charge/allreduce loop on a faultWorld until the
// scheduled crash poisons it, and returns the poisoned world.
func crashWorld(t *testing.T, nranks, perNode, node int, at float64) *World {
	t.Helper()
	w := faultWorld(t, nranks, perNode)
	if err := w.ScheduleNodeCrash(node, at); err != nil {
		t.Fatal(err)
	}
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		for i := 0; i < 1000; i++ {
			r.ChargeCompute(1e6, 0)
			r.AllreduceScalar(OpSum, 1)
		}
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("crash did not poison the world: %v", err)
	}
	return w
}

func TestShrinkDropsDeadNodeAndRenumbers(t *testing.T) {
	w := crashWorld(t, 8, 2, 1, 0.005) // kills ranks 2,3
	sr, err := w.ShrinkNodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.World.Size(); got != 6 {
		t.Fatalf("survivor world has %d ranks, want 6", got)
	}
	if sr.DeadNode != 1 {
		t.Fatalf("dead node %d, want 1", sr.DeadNode)
	}
	wantDead := []int{2, 3}
	if len(sr.DeadRanks) != 2 || sr.DeadRanks[0] != wantDead[0] || sr.DeadRanks[1] != wantDead[1] {
		t.Fatalf("dead ranks %v, want %v", sr.DeadRanks, wantDead)
	}
	wantO2N := []int{0, 1, -1, -1, 2, 3, 4, 5}
	for old, want := range wantO2N {
		if sr.OldToNew[old] != want {
			t.Fatalf("OldToNew[%d] = %d, want %d", old, sr.OldToNew[old], want)
		}
	}
	for newR, oldR := range sr.NewToOld {
		if sr.OldToNew[oldR] != newR {
			t.Fatalf("NewToOld not the inverse at new rank %d", newR)
		}
	}
	// Node renumbering is order-preserving and skips the dead node.
	wantNode := []int{0, -1, 1, 2}
	for old, want := range wantNode {
		if sr.OldToNewNode[old] != want {
			t.Fatalf("OldToNewNode[%d] = %d, want %d", old, sr.OldToNewNode[old], want)
		}
	}
	// Survivor clocks carry the pre-shrink virtual times.
	for newR, oldR := range sr.NewToOld {
		if got, want := sr.World.Clocks()[newR].Now(), w.Clocks()[oldR].Now(); got != want {
			t.Fatalf("new rank %d clock %v, want carried %v", newR, got, want)
		}
		if w.Clocks()[oldR].Now() <= 0 {
			t.Fatalf("old rank %d clock never advanced", oldR)
		}
	}
	// The consumed world cannot run again; the survivor world can.
	if err := w.Run(func(r *Rank) error { return nil }); err == nil {
		t.Fatal("shrunk world accepted Run")
	}
	if _, err := w.ShrinkNodes(nil); err == nil {
		t.Fatal("double Shrink accepted")
	}
}

func TestShrinkRevokesPendingTraffic(t *testing.T) {
	w := faultWorld(t, 4, 1)
	if err := w.ScheduleNodeCrash(1, 1e-9); err != nil {
		t.Fatal(err)
	}
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		// Rank 0 posts a message to the doomed rank 1 and one to rank 2
		// before anyone notices the failure; rank 1 dies at its first
		// communication call, leaving its mailbox traffic pending.
		if r.ID() == 0 {
			r.SendF64(1, 7, []float64{1})
			r.SendF64(2, 7, []float64{2})
		}
		r.ChargeCompute(1e9, 0)
		r.AllreduceScalar(OpSum, 1)
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("want ErrRankDead, got %v", err)
	}
	sr, err := w.ShrinkNodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Revoked == 0 {
		t.Fatal("no pending traffic revoked; the message to the dead rank should be")
	}
}

func TestAgreeDeadUnionsSuspicions(t *testing.T) {
	w := faultWorld(t, 4, 2)
	var mu sync.Mutex
	got := make([][]bool, 4)
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		// Each rank suspects only its own index; agreement must return the
		// full union on every rank.
		suspect := make([]bool, 6)
		suspect[r.ID()] = true
		agreed := r.AgreeDead(suspect)
		mu.Lock()
		got[r.ID()] = agreed
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk, agreed := range got {
		for i := 0; i < 6; i++ {
			want := i < 4
			if agreed[i] != want {
				t.Fatalf("rank %d: agreed[%d] = %v, want %v", rk, i, agreed[i], want)
			}
		}
	}
}

func TestShrinkOnHealthyWorldRefused(t *testing.T) {
	w := faultWorld(t, 4, 2)
	if _, err := w.ShrinkNodes(nil); err == nil {
		t.Fatal("Shrink on a healthy world accepted")
	}
}

func TestShrinkNodesDropsCorrelatedSet(t *testing.T) {
	w := crashWorld(t, 8, 2, 1, 0.005) // recorded failure: node 1 (ranks 2,3)
	sr, err := w.ShrinkNodes([]int{3}) // the wave also dooms node 3 (ranks 6,7)
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.World.Size(); got != 4 {
		t.Fatalf("survivor world has %d ranks, want 4", got)
	}
	if sr.DeadNode != 1 {
		t.Fatalf("dead node %d, want the recorded failure node 1", sr.DeadNode)
	}
	if len(sr.DeadNodes) != 2 || sr.DeadNodes[0] != 1 || sr.DeadNodes[1] != 3 {
		t.Fatalf("dead nodes %v, want [1 3] ascending", sr.DeadNodes)
	}
	wantDead := []int{2, 3, 6, 7}
	if len(sr.DeadRanks) != len(wantDead) {
		t.Fatalf("dead ranks %v, want %v", sr.DeadRanks, wantDead)
	}
	for i, r := range wantDead {
		if sr.DeadRanks[i] != r {
			t.Fatalf("dead ranks %v, want %v", sr.DeadRanks, wantDead)
		}
	}
	wantO2N := []int{0, 1, -1, -1, 2, 3, -1, -1}
	for old, want := range wantO2N {
		if sr.OldToNew[old] != want {
			t.Fatalf("OldToNew[%d] = %d, want %d", old, sr.OldToNew[old], want)
		}
	}
	wantNode := []int{0, -1, 1, -1}
	for old, want := range wantNode {
		if sr.OldToNewNode[old] != want {
			t.Fatalf("OldToNewNode[%d] = %d, want %d", old, sr.OldToNewNode[old], want)
		}
	}
	// Survivor clocks carry, exactly as for a plain Shrink.
	for newR, oldR := range sr.NewToOld {
		if got, want := sr.World.Clocks()[newR].Now(), w.Clocks()[oldR].Now(); got != want {
			t.Fatalf("new rank %d clock %v, want carried %v", newR, got, want)
		}
	}
}

func TestShrinkNodesValidation(t *testing.T) {
	w := crashWorld(t, 8, 2, 1, 0.005)
	// Invalid doomed nodes are rejected BEFORE the world is consumed, so a
	// corrected call still works.
	if _, err := w.ShrinkNodes([]int{4}); err == nil {
		t.Fatal("out-of-range doomed node accepted")
	}
	if _, err := w.ShrinkNodes([]int{-1}); err == nil {
		t.Fatal("negative doomed node accepted")
	}
	// Listing the failure node again is harmless (it is already doomed).
	sr, err := w.ShrinkNodes([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.World.Size() != 6 || len(sr.DeadNodes) != 1 || sr.DeadNodes[0] != 1 {
		t.Fatalf("duplicate doomed node changed the outcome: %d ranks, dead %v",
			sr.World.Size(), sr.DeadNodes)
	}
}

func TestShrinkNodesRefusesTotalLoss(t *testing.T) {
	w := crashWorld(t, 8, 2, 0, 0.005)
	if _, err := w.ShrinkNodes([]int{1, 2, 3}); err == nil {
		t.Fatal("a wave dooming every node must be refused, not shrunk to zero ranks")
	}
}

package mp

import (
	"errors"
	"slices"
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
	if f, _ := w.Failure(); f.Node != 1 {
		t.Fatalf("recorded failure on node %d, want 1", f.Node)
	}
	if want := []int{2, 3}; !slices.Equal(sr.DeadRanks, want) {
		t.Fatalf("dead ranks %v, want %v", sr.DeadRanks, want)
	}
	if want := []int{0, 1, 4, 5, 6, 7}; !slices.Equal(sr.NewToOld, want) {
		t.Fatalf("NewToOld %v, want %v", sr.NewToOld, want)
	}
	// Node renumbering is order-preserving and skips the dead node.
	if want := []int{0, -1, 1, 2}; !slices.Equal(sr.OldToNewNode, want) {
		t.Fatalf("OldToNewNode %v, want %v", sr.OldToNewNode, want)
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
			Send(r, 1, 7, []float64{1})
			Send(r, 2, 7, []float64{2})
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
	if f, _ := w.Failure(); f.Node != 1 {
		t.Fatalf("recorded failure on node %d, want 1", f.Node)
	}
	if want := []int{2, 3, 6, 7}; !slices.Equal(sr.DeadRanks, want) {
		t.Fatalf("dead ranks %v, want %v", sr.DeadRanks, want)
	}
	if want := []int{0, 1, 4, 5}; !slices.Equal(sr.NewToOld, want) {
		t.Fatalf("NewToOld %v, want %v", sr.NewToOld, want)
	}
	// Both the failure node and the doomed one are dropped.
	if want := []int{0, -1, 1, -1}; !slices.Equal(sr.OldToNewNode, want) {
		t.Fatalf("OldToNewNode %v, want %v", sr.OldToNewNode, want)
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
	if want := []int{0, -1, 1, 2}; sr.World.Size() != 6 || !slices.Equal(sr.OldToNewNode, want) {
		t.Fatalf("duplicate doomed node changed the outcome: %d ranks, OldToNewNode %v, want 6 and %v",
			sr.World.Size(), sr.OldToNewNode, want)
	}
}

func TestShrinkNodesRefusesTotalLoss(t *testing.T) {
	w := crashWorld(t, 8, 2, 0, 0.005)
	if _, err := w.ShrinkNodes([]int{1, 2, 3}); err == nil {
		t.Fatal("a wave dooming every node must be refused, not shrunk to zero ranks")
	}
}

package mp

import (
	"errors"
	"math"
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

// reformAll re-forms a poisoned world with no new nodes.
func reformAll(t *testing.T, w *World, alsoDoomed ...int) *Reformed {
	t.Helper()
	rf, err := w.Reform(alsoDoomed, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

func TestReformDropsDeadNodeAndRenumbers(t *testing.T) {
	w := crashWorld(t, 8, 2, 1, 0.005) // kills ranks 2,3
	rf := reformAll(t, w)
	if got := rf.World.Size(); got != 6 {
		t.Fatalf("survivor world has %d ranks, want 6", got)
	}
	if f, _ := w.Failure(); f.Node != 1 {
		t.Fatalf("recorded failure on node %d, want 1", f.Node)
	}
	if want := []int{2, 3}; !slices.Equal(rf.DeadRanks, want) {
		t.Fatalf("dead ranks %v, want %v", rf.DeadRanks, want)
	}
	if want := []int{0, 1, 4, 5, 6, 7}; !slices.Equal(rf.NewToOld, want) {
		t.Fatalf("NewToOld %v, want %v", rf.NewToOld, want)
	}
	if len(rf.NewNodes) != 0 {
		t.Fatalf("NewNodes %v, want none", rf.NewNodes)
	}
	// Node renumbering is order-preserving and skips the dead node.
	if want := []int{0, -1, 1, 2}; !slices.Equal(rf.OldToNewNode, want) {
		t.Fatalf("OldToNewNode %v, want %v", rf.OldToNewNode, want)
	}
	// Survivor clocks carry the pre-loss virtual times.
	for newR, oldR := range rf.NewToOld {
		if got, want := rf.World.Clocks()[newR].Now(), w.Clocks()[oldR].Now(); got != want {
			t.Fatalf("new rank %d clock %v, want carried %v", newR, got, want)
		}
		if w.Clocks()[oldR].Now() <= 0 {
			t.Fatalf("old rank %d clock never advanced", oldR)
		}
	}
	// The consumed world cannot run or re-form again.
	if err := w.Run(func(r *Rank) error { return nil }); err == nil {
		t.Fatal("re-formed world accepted Run")
	}
	if _, err := w.Reform(nil, nil, nil, 0); err == nil {
		t.Fatal("double Reform accepted")
	}
}

// TestReformDropsTwoNodesAndJoinsTwo re-forms in one call what a migration
// under a two-node wave does: the failed node and a doomed one go, two
// replacement nodes join, and the result runs a collective over survivors
// and joiners alike.
func TestReformDropsTwoNodesAndJoinsTwo(t *testing.T) {
	w := faultWorld(t, 8, 2) // 4 nodes of 2
	if err := w.ScheduleNodeCrash(1, 1e-9); err != nil {
		t.Fatal(err)
	}
	var table InternTable
	w.UseInterns(&table)
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		// Rank 0 posts to the failed node's rank 2 and the doomed node's
		// rank 6, which never take it.
		if r.ID() == 0 {
			for _, dst := range []int{2, 6} {
				Send(r, dst, 7, []float64{float64(dst)})
			}
			return nil
		}
		r.ChargeCompute(1e9, 0)
		Recv[float64](r, 0, 9)
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("want ErrRankDead, got %v", err)
	}
	joinAt := w.MaxVirtualTime() + 1
	rf, err := w.Reform([]int{3}, []int{2, 2}, []int{1, 0}, joinAt)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 4, 5, -1, -1, -1, -1}; !slices.Equal(rf.NewToOld, want) {
		t.Fatalf("NewToOld %v, want %v", rf.NewToOld, want)
	}
	if want := []int{2, 3, 6, 7}; !slices.Equal(rf.DeadRanks, want) {
		t.Fatalf("dead ranks %v, want %v", rf.DeadRanks, want)
	}
	if want := []int{0, -1, 1, -1}; !slices.Equal(rf.OldToNewNode, want) {
		t.Fatalf("OldToNewNode %v, want %v", rf.OldToNewNode, want)
	}
	if want := []int{2, 3}; !slices.Equal(rf.NewNodes, want) {
		t.Fatalf("NewNodes %v, want %v", rf.NewNodes, want)
	}
	topo := rf.World.Topology()
	if want := []int{0, 0, 1, 1, 2, 2, 3, 3}; !slices.Equal(topo.NodeOf, want) {
		t.Fatalf("NodeOf %v, want %v", topo.NodeOf, want)
	}
	wantGroups := []int{w.Topology().GroupOfNode[0], w.Topology().GroupOfNode[2], 1, 0}
	if !slices.Equal(topo.GroupOfNode, wantGroups) {
		t.Fatalf("GroupOfNode %v, want %v", topo.GroupOfNode, wantGroups)
	}
	// The messages to the dead are revoked.
	if rf.Revoked != 2 {
		t.Fatalf("revoked %d messages, want the 2 addressed to dead ranks", rf.Revoked)
	}
	if n := pending(w); n != 0 {
		t.Fatalf("the old world kept %d messages after Reform, want none", n)
	}
	for newR, oldR := range rf.NewToOld {
		want := joinAt
		if oldR >= 0 {
			want = w.Clocks()[oldR].Now()
		}
		if got := rf.World.Clocks()[newR].Now(); got != want {
			t.Fatalf("new rank %d (old %d) clock %v, want %v", newR, oldR, got, want)
		}
	}
	if rf.World.interns != &table {
		t.Fatal("the re-formed world does not share its parent's intern table")
	}
	var mu sync.Mutex
	sums := make([]float64, 8)
	err = runWithDeadline(t, rf.World, 30*time.Second, func(r *Rank) error {
		s := r.AllreduceScalar(OpSum, float64(r.ID()))
		mu.Lock()
		sums[r.ID()] = s
		mu.Unlock()
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
	if got := rf.World.Clocks()[7].Now(); got <= joinAt {
		t.Fatalf("joiner clock %v did not advance past its join time %v", got, joinAt)
	}
}

func TestReformRevokesPendingTraffic(t *testing.T) {
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
	if rf := reformAll(t, w); rf.Revoked == 0 {
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

func TestReformDropsCorrelatedSet(t *testing.T) {
	w := crashWorld(t, 8, 2, 1, 0.005) // recorded failure: node 1 (ranks 2,3)
	rf := reformAll(t, w, 3)           // the wave also dooms node 3 (ranks 6,7)
	if got := rf.World.Size(); got != 4 {
		t.Fatalf("survivor world has %d ranks, want 4", got)
	}
	if f, _ := w.Failure(); f.Node != 1 {
		t.Fatalf("recorded failure on node %d, want 1", f.Node)
	}
	if want := []int{2, 3, 6, 7}; !slices.Equal(rf.DeadRanks, want) {
		t.Fatalf("dead ranks %v, want %v", rf.DeadRanks, want)
	}
	if want := []int{0, 1, 4, 5}; !slices.Equal(rf.NewToOld, want) {
		t.Fatalf("NewToOld %v, want %v", rf.NewToOld, want)
	}
	// Both the failure node and the doomed one are dropped.
	if want := []int{0, -1, 1, -1}; !slices.Equal(rf.OldToNewNode, want) {
		t.Fatalf("OldToNewNode %v, want %v", rf.OldToNewNode, want)
	}
	// Survivor clocks carry, exactly as when only the failure node goes.
	for newR, oldR := range rf.NewToOld {
		if got, want := rf.World.Clocks()[newR].Now(), w.Clocks()[oldR].Now(); got != want {
			t.Fatalf("new rank %d clock %v, want carried %v", newR, got, want)
		}
	}
}

// TestReformValidation: a healthy world and every bad argument are refused
// before the world is consumed, so a corrected call still works.
func TestReformValidation(t *testing.T) {
	if _, err := faultWorld(t, 4, 2).Reform(nil, nil, nil, 0); err == nil {
		t.Fatal("Reform on a healthy world accepted")
	}
	w := crashWorld(t, 8, 2, 1, 0.005)
	for _, c := range []struct {
		name             string
		doomed, per, grp []int
		joinAt           float64
	}{
		{"out-of-range doomed node", []int{4}, nil, nil, 0},
		{"negative doomed node", []int{-1}, nil, nil, 0},
		{"mismatched rank/group lengths", nil, []int{1}, []int{0, 0}, 1},
		{"new node of zero ranks", nil, []int{0}, []int{0}, 1},
		{"negative join time", nil, []int{1}, []int{0}, -1},
		{"NaN join time", nil, []int{1}, []int{0}, math.NaN()},
		{"total loss", []int{0, 2, 3}, nil, nil, 0},
		{"total loss with new nodes", []int{0, 2, 3}, []int{2}, []int{0}, 1},
	} {
		if _, err := w.Reform(c.doomed, c.per, c.grp, c.joinAt); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Listing the failure node again is harmless (it is already doomed).
	rf := reformAll(t, w, 1)
	if want := []int{0, -1, 1, 2}; rf.World.Size() != 6 || !slices.Equal(rf.OldToNewNode, want) {
		t.Fatalf("duplicate doomed node changed the outcome: %d ranks, OldToNewNode %v, want 6 and %v",
			rf.World.Size(), rf.OldToNewNode, want)
	}
}

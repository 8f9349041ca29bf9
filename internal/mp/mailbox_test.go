package mp

import (
	"fmt"
	"math/bits"
	"testing"
)

// TestMsgQueuePopTag unit-tests the collective FIFO's tag matching: removal
// is by oldest-of-tag, order among the remaining messages is preserved, and
// draining rewinds the queue for reuse.
func TestMsgQueuePopTag(t *testing.T) {
	var q msgQueue
	// Interleave three collective tags, two messages each.
	for i, tag := range []int{-1, -2, -3, -1, -2, -3} {
		m := intsMsg([]int{i})
		m.tag = tag
		q.push(m)
	}
	if _, ok := q.popTag(-9); ok {
		t.Fatal("popTag matched an absent tag")
	}
	// Pull the middle tag first, then the others: each pair must come out
	// in push order.
	wantOrder := []struct{ tag, val int }{
		{-2, 1}, {-2, 4}, {-1, 0}, {-1, 3}, {-3, 2}, {-3, 5},
	}
	for _, w := range wantOrder {
		m, ok := q.popTag(w.tag)
		if !ok || m.ints()[0] != w.val {
			t.Fatalf("popTag(%d): got %v ok=%v, want value %d", w.tag, m.ints(), ok, w.val)
		}
	}
	if !q.empty() || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not rewound: head=%d len=%d", q.head, len(q.buf))
	}
	// Reuse after rewind must not lose messages.
	q.push(message{tag: -4})
	if m, ok := q.popTag(-4); !ok || m.tag != -4 {
		t.Fatal("queue unusable after rewind")
	}
}

// TestMailboxFootprintIndependentOfWorldSize runs the solver's communication
// pattern — a 26-neighbour exchange, a scalar allreduce, a barrier — on a 4³
// and a 10³ grid of ranks and checks that a mailbox's table follows the
// number of ranks that send to its owner, not the world size: a per-mailbox
// array of length P cannot come back unnoticed.
func TestMailboxFootprintIndependentOfWorldSize(t *testing.T) {
	for _, side := range []int{4, 10} {
		p := side * side * side
		w := testWorld(t, p, 16)
		err := w.Run(func(r *Rank) error {
			x, y, z := r.ID()%side, r.ID()/side%side, r.ID()/(side*side)
			var peers []int
			for dz := -1; dz <= 1; dz++ {
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nx, ny, nz := x+dx, y+dy, z+dz
						if (dx != 0 || dy != 0 || dz != 0) && nx >= 0 && nx < side && ny >= 0 && ny < side && nz >= 0 && nz < side {
							peers = append(peers, (nz*side+ny)*side+nx)
						}
					}
				}
			}
			for round := 0; round < 3; round++ {
				for _, q := range peers {
					r.SendF64(q, 7, []float64{float64(r.ID())})
				}
				for _, q := range peers {
					if got := r.RecvF64(q, 7); got[0] != float64(q) {
						return fmt.Errorf("rank %d got %v from %d", r.ID(), got[0], q)
					}
				}
				if got := r.AllreduceScalar(OpSum, 1); got != float64(p) {
					return fmt.Errorf("allreduce gave %v, want %d", got, p)
				}
				r.Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		logP := bits.Len(uint(p - 1)) // ⌈log₂ P⌉
		// Senders to one rank: its grid neighbours, its reduce children and
		// broadcast parent, its barrier partners.
		bound := 26 + 2*logP + logP
		for i, mb := range w.boxes {
			if mb.used > bound {
				t.Fatalf("P=%d: mailbox %d holds %d sources, bound is %d", p, i, mb.used, bound)
			}
			if len(mb.slots) > 4*bound {
				t.Fatalf("P=%d: mailbox %d has %d slots for %d sources, bound is %d", p, i, len(mb.slots), mb.used, 4*bound)
			}
		}
	}
}

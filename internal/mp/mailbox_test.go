package mp

import (
	"fmt"
	"math/bits"
	"testing"
)

// TestTakeAnyInterleavedTags exercises the per-tag arrival FIFOs: two
// any-source tags interleaved from one sender must each preserve send order
// and must not see each other's messages, regardless of the order the
// receiver drains them.
func TestTakeAnyInterleavedTags(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		const tagA, tagB, per = 7, 8, 20
		if r.ID() == 0 {
			// Interleave the two tags message by message.
			for i := 0; i < per; i++ {
				r.SendInts(1, tagA, []int{i})
				r.SendInts(1, tagB, []int{100 + i})
			}
			return nil
		}
		// Drain tag B completely first: every tag-A message sits queued in
		// its own FIFO while tag B is matched past it.
		for i := 0; i < per; i++ {
			src, got := r.RecvAnyInts(tagB)
			if src != 0 || got[0] != 100+i {
				return fmt.Errorf("tag B message %d: got src %d value %v", i, src, got)
			}
		}
		for i := 0; i < per; i++ {
			src, got := r.RecvAnyInts(tagA)
			if src != 0 || got[0] != i {
				return fmt.Errorf("tag A message %d: got src %d value %v", i, src, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTakeAnyInterleavedSources checks that one tag's arrival FIFO merges
// several senders while a second tag from the same senders stays queued:
// the receiver sees every (src, i) pair exactly once per tag, and messages
// from any fixed source arrive in that source's send order.
func TestTakeAnyInterleavedSources(t *testing.T) {
	const nranks, per = 4, 10
	w := testWorld(t, nranks, nranks)
	err := w.Run(func(r *Rank) error {
		const tagA, tagB = 11, 12
		if r.ID() != 0 {
			for i := 0; i < per; i++ {
				r.SendInts(0, tagA, []int{r.ID()*1000 + i})
				r.SendInts(0, tagB, []int{r.ID()*1000 + 500 + i})
			}
			return nil
		}
		check := func(tag, offset int) error {
			next := make([]int, nranks) // per-source expected sequence number
			for k := 0; k < (nranks-1)*per; k++ {
				src, got := r.RecvAnyInts(tag)
				want := src*1000 + offset + next[src]
				if got[0] != want {
					return fmt.Errorf("tag %d from %d: got %v want %d", tag, src, got, want)
				}
				next[src]++
			}
			for src := 1; src < nranks; src++ {
				if next[src] != per {
					return fmt.Errorf("tag %d: %d messages from %d, want %d", tag, next[src], src, per)
				}
			}
			return nil
		}
		// Drain B before A so A's backlog spans all senders when matching
		// starts.
		if err := check(tagB, 500); err != nil {
			return err
		}
		return check(tagA, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

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
			buf := make([]float64, 1)
			for round := 0; round < 3; round++ {
				for _, q := range peers {
					r.SendF64(q, 7, []float64{float64(r.ID())})
				}
				for _, q := range peers {
					if r.RecvF64Into(q, 7, buf); buf[0] != float64(q) {
						return fmt.Errorf("rank %d got %v from %d", r.ID(), buf[0], q)
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

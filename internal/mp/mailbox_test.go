package mp

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// TestMsgQueuePopTag unit-tests a source FIFO's tag matching: removal is by
// oldest-of-tag, order among the remaining messages is preserved, and a
// drained queue takes messages again.
func TestMsgQueuePopTag(t *testing.T) {
	var q msgQueue
	// Interleave three tags, two messages each.
	for i, tag := range []int{-1, -2, -3, -1, -2, -3} {
		m := pack([]int{i})
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
		if !ok {
			t.Fatalf("popTag(%d) found nothing, want value %d", w.tag, w.val)
		}
		if got := unpack[int](m)[0]; got != w.val {
			t.Fatalf("popTag(%d) = %d, want %d", w.tag, got, w.val)
		}
	}
	if q.len() != 0 {
		t.Fatalf("drained queue holds %d messages", q.len())
	}
	// Reuse after draining must not lose messages.
	q.push(message{tag: -4})
	if m, ok := q.popTag(-4); !ok || m.tag != -4 {
		t.Fatal("queue unusable after draining")
	}
}

// TestMailboxFootprintIndependentOfWorldSize runs the solver's communication
// pattern — a 26-neighbour exchange, a scalar allreduce, a barrier — on a 4³
// and a 10³ grid of ranks and checks that a mailbox's source map follows the
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
					Send(r, q, 7, []float64{float64(r.ID())})
				}
				for _, q := range peers {
					if got := Recv[float64](r, q, 7); got[0] != float64(q) {
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
		// Senders to one rank: its grid neighbours and barrier partners. The
		// bound also counts its allreduce tree partners, which now send it
		// nothing but a message stranded by a death.
		bound := 26 + 2*logP + logP
		for i, mb := range w.boxes {
			if len(mb.srcs) > bound {
				t.Fatalf("P=%d: mailbox %d holds %d sources, bound is %d", p, i, len(mb.srcs), bound)
			}
		}
	}
}

// TestRecvLengthMismatchReturnsBuffer checks that the scattering mailbox
// receive counts the return of a payload of the wrong length before it
// panics, as it counts every payload it takes.
func TestRecvLengthMismatchReturnsBuffer(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			Send(r, 1, 3, []float64{1, 2, 3})
			return nil
		}
		r.RecvF64AddScatter(0, 3, make([]float64, 8), []int{0, 1, 2, 3})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mp: RecvF64AddScatter payload 3 != positions 4") {
		t.Fatalf("a mismatched receive returned %v, want its panic", err)
	}
	if gets, puts := w.gets.Load(), w.puts.Load(); gets != 1 || puts != 1 {
		t.Fatalf("%d gets, %d puts; the rejected payload's return was not counted", gets, puts)
	}
}

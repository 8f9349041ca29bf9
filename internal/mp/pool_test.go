package mp

import (
	"strings"
	"testing"
	"unsafe"
)

// TestRankLocalPoolBounded streams 10,000 messages one way and lets the
// receiver start once they are all queued. The receiver puts a buffer per
// message and never gets one, so its private stack must stop at the depth
// cap and overflow into the shared pool, which fills to its own cap and
// drops the rest. Afterwards every free buffer sits in the shared level
// exactly once.
func TestRankLocalPoolBounded(t *testing.T) {
	const n, size = 10000, 5
	class := poolClassOf(size)
	w := testWorld(t, 2, 2)
	deepest := 0
	err := w.Run(func(r *Rank) error {
		data := make([]float64, size)
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.SendF64(1, 3, data)
			}
			r.SendF64(1, 4, nil)
			return nil
		}
		r.RecvF64(0, 4)
		for i := 0; i < n; i++ {
			r.RecvF64Into(0, 3, data)
			for c := range r.pool.free {
				if d := len(r.pool.free[c]); d > deepest {
					deepest = d
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if deepest != localClassDepth {
		t.Fatalf("receiver's deepest private stack held %d buffers, want the cap %d", deepest, localClassDepth)
	}
	seen := map[unsafe.Pointer]bool{}
	for c := range w.pool.classes {
		free := w.pool.classes[c].free[:w.pool.classes[c].n]
		if c != class && len(free) > 0 {
			t.Fatalf("shared class %d holds %d buffers; only class %d was used", c, len(free), class)
		}
		for _, buf := range free {
			if cap(buf) != 1<<c {
				t.Fatalf("class %d holds a buffer of capacity %d", c, cap(buf))
			}
			p := unsafe.Pointer(unsafe.SliceData(buf))
			if seen[p] {
				t.Fatalf("buffer %p is in the pool twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != poolClassDepth {
		t.Fatalf("shared pool holds %d buffers; the receiver's overflow should have filled it to %d", len(seen), poolClassDepth)
	}
}

// TestRecvLengthMismatchReturnsBuffer checks that the copying receives hand
// a payload of the wrong length back to the pool before they panic.
func TestRecvLengthMismatchReturnsBuffer(t *testing.T) {
	recvs := map[string]func(r *Rank){
		"RecvF64Into":       func(r *Rank) { r.RecvF64Into(0, 3, make([]float64, 2)) },
		"RecvF64Scatter":    func(r *Rank) { r.RecvF64Scatter(0, 3, make([]float64, 8), []int{0, 1}) },
		"RecvF64AddScatter": func(r *Rank) { r.RecvF64AddScatter(0, 3, make([]float64, 8), []int{0, 1, 2, 3}) },
	}
	for name, recv := range recvs {
		w := testWorld(t, 2, 2)
		w.pool.counting = true
		err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				r.SendF64(1, 3, []float64{1, 2, 3})
				return nil
			}
			recv(r)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "mp: "+name) {
			t.Fatalf("%s with a mismatched length returned %v, want its panic", name, err)
		}
		if gets, puts := w.pool.gets.Load(), w.pool.puts.Load(); gets != 1 || puts != 1 {
			t.Fatalf("%s: %d gets, %d puts; the rejected payload leaked", name, gets, puts)
		}
		if got := w.pool.classes[poolClassOf(3)].n; got != 1 {
			t.Fatalf("%s: %d buffers back in the pool, want 1", name, got)
		}
	}
}

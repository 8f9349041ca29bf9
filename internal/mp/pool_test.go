package mp

import (
	"strings"
	"testing"
	"unsafe"
)

// sharedFree returns the buffers in each shared class of p, keyed by class,
// and fails the test when a buffer is filed under the wrong class or twice.
func sharedFree(t *testing.T, p *f64Pool) map[int]map[unsafe.Pointer]bool {
	t.Helper()
	out := map[int]map[unsafe.Pointer]bool{}
	seen := map[unsafe.Pointer]bool{}
	for c := range p.classes {
		for _, buf := range p.classes[c].free {
			if cap(buf) != 1<<c {
				t.Fatalf("class %d holds a buffer of capacity %d", c, cap(buf))
			}
			ptr := unsafe.Pointer(unsafe.SliceData(buf))
			if seen[ptr] {
				t.Fatalf("buffer %p is in the pool twice", ptr)
			}
			seen[ptr] = true
			if out[c] == nil {
				out[c] = map[unsafe.Pointer]bool{}
			}
			out[c][ptr] = true
		}
	}
	return out
}

// TestRankLocalPoolBounded streams messages of two sizes one way and lets the
// receiver start once they are all queued. The receiver puts a buffer per
// message and never gets one. Its private stack of the small class must stop
// at the depth cap and overflow into the shared pool, which keeps every one
// of those: 10,000 buffers of 64 bytes are far inside the class's byte bound.
// The large class, 8 KiB buffers that no rank caches privately, goes straight
// to the shared level, which fills to its bound — 32 MiB, 4096 buffers — and
// drops the rest. Afterwards every free buffer sits in the shared level
// exactly once.
func TestRankLocalPoolBounded(t *testing.T) {
	const small, smallSize, largeSize = 10000, 5, 1024
	smallClass, largeClass := poolClassOf(smallSize), poolClassOf(largeSize)
	fill := poolClassBytes / (8 << largeClass) // 4096 buffers of 8 KiB
	large := fill + 64
	w := testWorld(t, 2, 2)
	deepest := 0
	err := w.Run(func(r *Rank) error {
		data, big := make([]float64, smallSize), make([]float64, largeSize)
		if r.ID() == 0 {
			for i := 0; i < small; i++ {
				r.SendF64(1, 3, data)
			}
			for i := 0; i < large; i++ {
				r.SendF64(1, 5, big)
			}
			r.SendF64(1, 4, nil)
			return nil
		}
		r.RecvF64(0, 4)
		pos := make([]int, largeSize)
		for i := range pos {
			pos[i] = i
		}
		for i := 0; i < small; i++ {
			r.RecvF64Scatter(0, 3, data, pos[:smallSize])
			for c := range r.pool.free {
				if d := len(r.pool.free[c]); d > deepest {
					deepest = d
				}
			}
		}
		for i := 0; i < large; i++ {
			r.RecvF64Scatter(0, 5, big, pos)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if deepest != localClassDepth {
		t.Fatalf("receiver's deepest private stack held %d buffers, want the cap %d", deepest, localClassDepth)
	}
	free := sharedFree(t, w.pool)
	for c, bufs := range free {
		if c != smallClass && c != largeClass {
			t.Fatalf("shared class %d holds %d buffers; only classes %d and %d were used", c, len(bufs), smallClass, largeClass)
		}
	}
	if got := len(free[smallClass]); got != small {
		t.Fatalf("shared class %d holds %d buffers; it should have kept all %d", smallClass, got, small)
	}
	if got := len(free[largeClass]); got != fill {
		t.Fatalf("shared class %d holds %d buffers; the overflow should have filled it to %d (%d bytes)", largeClass, got, fill, poolClassBytes)
	}
	if got := classDepth(poolClasses - 1); got != poolClassDepth {
		t.Fatalf("the largest class keeps %d buffers, want the floor %d", got, poolClassDepth)
	}
}

// TestCensusBuffersOutliveTheCensus runs two ExchangeInts on 300 ranks, whose
// P-length indicators and sums fall in a class no rank caches privately.
// The shared class starts with as many buffers as one census can draw (an
// indicator and an accumulator per rank, a broadcast copy per rank but the
// root), so a census never has to allocate; afterwards the class must hold
// exactly those buffers. A class that kept fewer would have dropped some
// and, in the second census, allocated them anew.
func TestCensusBuffersOutliveTheCensus(t *testing.T) {
	const p = 300
	class := poolClassOf(p)
	if class < localClasses {
		t.Fatalf("a %d-element census buffer is in private class %d", p, class)
	}
	w := testWorld(t, p, 16)
	for i := 0; i < 3*p; i++ {
		w.pool.put(make([]float64, 0, 1<<class))
	}
	before := sharedFree(t, w.pool)[class]
	if len(before) != 3*p {
		t.Fatalf("shared class %d kept %d of the %d buffers put", class, len(before), 3*p)
	}
	err := w.Run(func(r *Rank) error {
		for round := 0; round < 2; round++ {
			r.ExchangeInts(exchangePeers(r.ID(), p), func(int) []int { return []int{round} })
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sharedFree(t, w.pool)[class]
	for ptr := range after {
		if !before[ptr] {
			t.Fatalf("a census allocated buffer %p of class %d", ptr, class)
		}
	}
	if len(after) != len(before) {
		t.Fatalf("shared class %d holds %d buffers after two censuses, %d before: some were dropped", class, len(after), len(before))
	}
}

// TestRecvLengthMismatchReturnsBuffer checks that the scattering receives
// hand a payload of the wrong length back to the pool before they panic.
func TestRecvLengthMismatchReturnsBuffer(t *testing.T) {
	recvs := map[string]func(r *Rank){
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
		if got := len(w.pool.classes[poolClassOf(3)].free); got != 1 {
			t.Fatalf("%s: %d buffers back in the pool, want 1", name, got)
		}
	}
}

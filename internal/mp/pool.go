package mp

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// f64Pool is the shared level of a World's two-level payload pool: float64
// message buffers binned by power-of-two capacity, each class a
// mutex-guarded LIFO stack. Every rank goroutine fronts it with a private
// rankPool, so the shared mutexes are reached only when a rank's own stacks
// run dry or overflow.
//
// An explicit free list (rather than sync.Pool) keeps the steady state
// allocation-free: sync.Pool is emptied on every GC cycle, which would
// reintroduce allocation spikes into the hot iteration path the benchmarks
// pin at 0 allocs/op. Boundedness comes from capping the stack depths and
// the largest recyclable buffer instead.
//
// Ownership protocol: every in-flight f64 payload is pool-owned and has one
// holder at a time — the sending rank between get and the mailbox handoff,
// the destination mailbox while the message is queued, the receiving rank
// between take and put, or a free stack (a rank's, or the shared one). A
// send variant obtains a buffer with get, fills it completely and hands it
// to the destination mailbox; the matching receive either transfers
// ownership to the application (RecvF64, and through it the results of Bcast
// and Allreduce) — the buffer then leaves the pool for good — or scatters
// the payload out and returns the buffer with put (RecvF64Scatter,
// RecvF64AddScatter). AllreduceScalar moves no
// buffer but counts a get for each message its trees would send and a put for
// each they would receive. The vector collectives own buffers in between: Reduce draws its accumulator
// (scratch), folds each child's payload in and returns it (release), and
// either sends the accumulator itself up the tree (sendOwned) or, on the
// root, hands it to the caller; ExchangeInts returns both its indicator and
// the Allreduce result it read one entry of. A buffer must never be put twice or
// retained after put. Buffers migrate: what a receiver puts came from its
// sender's stacks.
// A rank's stacks drain into the shared level when its goroutine exits
// (World.Run), so between runs every free buffer is in the shared level and
// Grow hands the warm pool to the grown world's ranks.
type f64Pool struct {
	classes [poolClasses]poolClass

	// counting makes exiting ranks fold their get/put counts into gets and
	// puts (observed worlds only). It is set before Run spawns the rank
	// goroutines and never written afterwards.
	counting   bool
	gets, puts atomic.Int64
}

// poolClass is one shared stack, bounded by classDepth. Its backing array is
// made poolClassDepth long at the class's first put and grows by append up to
// the deepest the class has been, so a put allocates only while that
// high-water mark rises. In practice that is once per world: when its ranks
// exit and drain their private stacks into it.
type poolClass struct {
	mu   sync.Mutex
	free [][]float64
}

const (
	// poolClasses bounds recyclable capacities to 1<<(poolClasses-1)
	// elements (4 Mi float64 = 32 MiB); larger buffers are allocated
	// directly and dropped on put.
	poolClasses = 23
	// poolClassDepth and poolClassBytes cap each shared class's stack (see
	// classDepth) so a burst cannot pin unbounded memory in the free list.
	poolClassDepth = 256
	poolClassBytes = 32 << 20
	// localClasses is the number of size classes a rank caches privately:
	// payloads of up to 1<<(localClasses-1) = 256 elements. Larger ones are
	// dominated by their copy, not by the shared lock.
	localClasses = 9
	// localClassDepth caps each private stack: a 26-neighbour halo exchange
	// posts all its sends, up to 26 buffers of one class, before it receives.
	localClassDepth = 32
)

// class returns the size-class index for n elements: the smallest c with
// 1<<c >= n.
func poolClassOf(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// classDepth is how many free buffers shared class c keeps: as many as fill
// poolClassBytes, and never fewer than poolClassDepth. A census at P = 1000
// (8 KiB indicators, three per rank) then finds its buffers again in the
// next census instead of allocating all but 256 of them anew.
func classDepth(c int) int {
	return max(poolClassDepth, poolClassBytes/(8<<c))
}

// get returns a buffer of length n (capacity 1<<class). The contents are
// unspecified; the caller must overwrite all n elements.
func (p *f64Pool) get(n int) []float64 {
	c := poolClassOf(n)
	if c >= poolClasses {
		return make([]float64, n)
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		buf := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		cl.mu.Unlock()
		return buf[:n]
	}
	cl.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// put returns a buffer whose capacity is an exact class size. Buffers beyond
// the largest class are dropped for the GC; a full class drops the buffer
// too.
func (p *f64Pool) put(buf []float64) {
	ci := poolClassOf(cap(buf))
	if ci >= poolClasses {
		return
	}
	cl := &p.classes[ci]
	cl.mu.Lock()
	if len(cl.free) < classDepth(ci) {
		if cl.free == nil {
			cl.free = make([][]float64, 0, poolClassDepth)
		}
		cl.free = append(cl.free, buf[:0])
	}
	cl.mu.Unlock()
}

// rankPool is one rank's private front to the world's f64Pool: unlocked
// per-class stacks touched only by the owning goroutine. Halo exchanges and
// the binomial trees return as many buffers of a class as they draw, so in
// the steady state get and put stay within these stacks.
type rankPool struct {
	shared *f64Pool
	free   [localClasses][][]float64
	// gets and puts count this rank's pool traffic (see f64Pool.counting).
	gets, puts int64
}

// get returns a buffer of length n from the rank's own stack, falling back
// to the shared pool. n == 0 returns nil without touching the pool.
func (p *rankPool) get(n int) []float64 {
	if n > 0 {
		p.gets++
	}
	return p.scratch(n)
}

// put returns a buffer obtained from get (on any rank). Buffers whose
// capacity is not an exact class size are dropped for the GC; a full private
// stack overflows into the shared pool.
func (p *rankPool) put(buf []float64) {
	p.puts++
	p.release(buf)
}

// scratch and release are get and put outside the traffic counts, for the
// vector collectives' accumulators and indicators and the payloads they
// consume. gets and puts reach the journal (obs "pool" event), which recycling
// added to a collective must leave byte for byte as it was.
func (p *rankPool) scratch(n int) []float64 {
	if n == 0 {
		return nil
	}
	if c := poolClassOf(n); c < localClasses {
		if k := len(p.free[c]); k > 0 {
			buf := p.free[c][k-1]
			p.free[c][k-1] = nil
			p.free[c] = p.free[c][:k-1]
			return buf[:n]
		}
	}
	return p.shared.get(n)
}

func (p *rankPool) release(buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if ci := bits.TrailingZeros(uint(c)); ci < localClasses && len(p.free[ci]) < localClassDepth {
		if p.free[ci] == nil {
			p.free[ci] = make([][]float64, 0, localClassDepth)
		}
		p.free[ci] = append(p.free[ci], buf[:0])
		return
	}
	p.shared.put(buf)
}

// drain hands the rank's cached buffers and traffic counts to the shared
// pool; World.Run calls it as the rank's goroutine exits.
func (p *rankPool) drain() {
	for c, st := range p.free {
		for _, buf := range st {
			p.shared.put(buf)
		}
		p.free[c] = nil
	}
	if p.shared.counting {
		p.shared.gets.Add(p.gets)
		p.shared.puts.Add(p.puts)
	}
}

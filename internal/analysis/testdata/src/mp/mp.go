// Package mp is the poolretain fixture: a miniature of the real transport
// with the same type names the analyzer keys on (f64Pool, rankPool, message)
// and a mailbox whose put method must NOT be confused with the pool's.
package mp

type f64Pool struct{ free [][]float64 }

func (p *f64Pool) get(n int) []float64 { return make([]float64, n) }
func (p *f64Pool) put(buf []float64)   {}

// rankPool is the rank-private front to the shared pool.
type rankPool struct {
	shared *f64Pool
	free   [][]float64
	spare  []float64
}

func (p *rankPool) get(n int) []float64 {
	if k := len(p.free); k > 0 {
		buf := p.free[k-1]
		p.free = p.free[:k-1]
		return buf[:n]
	}
	return p.shared.get(n)
}

// put parks the buffer in the front's own stack: the pool holding a free
// buffer is what the pool is for.
func (p *rankPool) put(buf []float64) { p.free = append(p.free, buf[:0]) }

// scratch and release are get and put outside the traffic counts.
func (p *rankPool) scratch(n int) []float64 { return p.get(n) }
func (p *rankPool) release(buf []float64)   { p.put(buf) }

// prefetch draws from the shared level into the front's own field — still a
// pool level holding a free buffer, so the field store is sanctioned.
func (p *rankPool) prefetch(n int) {
	buf := p.shared.get(n)
	p.spare = buf
}

type message struct {
	src, tag int
	f64      []float64
}

type mailbox struct{ q []message }

// put here is the mailbox handoff, not the pool recycle.
func (b *mailbox) put(m message) { b.q = append(b.q, m) }
func (b *mailbox) take() message { m := b.q[0]; b.q = b.q[1:]; return m }

type World struct {
	pool  f64Pool
	boxes []*mailbox
}

type Rank struct {
	world *World
	id    int
	pool  rankPool
	stash []float64
}

var debugLast []float64

// SendOK is the sanctioned shape: get, fill, hand off inside a message.
func (r *Rank) SendOK(dst int, data []float64) {
	cp := r.world.pool.get(len(data))
	copy(cp, data)
	r.world.boxes[dst].put(message{src: r.id, tag: 1, f64: cp})
}

// RecvOK is the documented transfer point: returning the payload moves
// ownership to the application.
func (r *Rank) RecvOK() []float64 {
	m := r.world.boxes[r.id].take()
	return m.f64
}

// RecvIntoOK copies out and recycles: the last payload touch precedes put.
func (r *Rank) RecvIntoOK(dst []float64) int {
	m := r.world.boxes[r.id].take()
	n := copy(dst, m.f64)
	r.world.pool.put(m.f64)
	return n
}

// FrontSendOK draws from the rank-local front and hands off inside a message.
func (r *Rank) FrontSendOK(dst int, data []float64) {
	cp := r.pool.get(len(data))
	copy(cp, data)
	r.world.boxes[dst].put(message{src: r.id, tag: 1, f64: cp})
}

// FrontRecvIntoOK recycles through the front after the last payload touch.
func (r *Rank) FrontRecvIntoOK(dst []float64) int {
	m := r.world.boxes[r.id].take()
	buf := m.f64
	n := copy(dst, buf)
	r.pool.put(buf)
	return n
}

// FrontStashField retains a buffer drawn from the front in a field that is
// not the pool's own.
func (r *Rank) FrontStashField(n int) {
	cp := r.pool.get(n)
	r.stash = cp // want `pooled buffer cp stored into field stash`
}

// FrontUseAfterPut touches the buffer after the front took it back.
func (r *Rank) FrontUseAfterPut(n int) float64 {
	buf := r.pool.get(n)
	buf[0] = 1
	r.pool.put(buf)
	return buf[0] // want `use of pooled buffer after put`
}

// ScratchStashField and ScratchUseAfterRelease: the uncounted twins carry the
// same ownership rules.
func (r *Rank) ScratchStashField(n int) {
	acc := r.pool.scratch(n)
	r.stash = acc // want `pooled buffer acc stored into field stash`
}

func (r *Rank) ScratchUseAfterRelease(n int) float64 {
	acc := r.pool.scratch(n)
	acc[0] = 1
	r.pool.release(acc)
	return acc[0] // want `use of pooled buffer after put`
}

// StashField retains a pooled buffer in a struct field.
func (r *Rank) StashField(n int) {
	cp := r.world.pool.get(n)
	r.stash = cp // want `pooled buffer cp stored into field stash`
}

// StashGlobal retains a pooled buffer in a package-level variable.
func (r *Rank) StashGlobal(n int) {
	cp := r.world.pool.get(n)
	debugLast = cp // want `pooled buffer cp stored into package-level variable debugLast`
}

type wrapper struct{ buf []float64 }

// WrapLiteral retains a pooled buffer inside a non-message composite.
func (r *Rank) WrapLiteral(n int) wrapper {
	cp := r.world.pool.get(n)
	return wrapper{buf: cp} // want `pooled buffer cp retained inside a composite literal`
}

// LeakGoroutine captures a pooled buffer in a goroutine.
func (r *Rank) LeakGoroutine(n int) {
	cp := r.world.pool.get(n)
	go func() {
		_ = cp[0] // want `pooled buffer cp captured by a goroutine`
	}()
	r.world.pool.put(cp)
}

// UseAfterPut touches the buffer after recycling it.
func (r *Rank) UseAfterPut(n int) float64 {
	cp := r.world.pool.get(n)
	cp[0] = 1
	r.world.pool.put(cp)
	return cp[0] // want `use of pooled buffer after put`
}

// DoublePut recycles twice.
func (r *Rank) DoublePut(n int) {
	cp := r.world.pool.get(n)
	r.world.pool.put(cp)
	r.world.pool.put(cp) // want `use of pooled buffer after put`
}

// PayloadAfterPut touches message.f64 after recycling it.
func (r *Rank) PayloadAfterPut() float64 {
	m := r.world.boxes[r.id].take()
	v := m.f64[0]
	r.world.pool.put(m.f64)
	return v + m.f64[0] // want `use of pooled buffer after put`
}

// ConditionalPut puts on an early-exit path only; the later use is on the
// no-put path and is correct — sibling-statement analysis stays quiet.
func (r *Rank) ConditionalPut(n int, early bool) float64 {
	cp := r.world.pool.get(n)
	if early {
		r.world.pool.put(cp)
		return 0
	}
	return cp[0]
}

// AllowedStash documents a deliberate retention.
func (r *Rank) AllowedStash(n int) {
	cp := r.world.pool.get(n)
	//heterolint:allow poolretain world-reset diagnostics buffer, pool is discarded right after
	r.stash = cp
}

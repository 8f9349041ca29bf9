package mp

import (
	"fmt"
	"sync/atomic"
)

// Link is a persistent point-to-point channel — MPI's persistent requests
// (MPI_Send_init / MPI_Recv_init, then MPI_Start per message) — for traffic
// whose peers, tag and sizes are fixed once a communication plan is set up,
// as a halo exchange's and a matrix refill's are. There is one link per
// (source, destination, tag): the sender's LinkTo and the receiver's LinkFrom
// find the same one in the destination's mailbox, which makes it under its
// lock at set-up, as it files ExchangeInts' senders. From then on a message
// costs neither side that lock: the sender takes the next slot the link
// owns, fills it and publishes it (TakeSlot, SendSlot; SendGather does all
// three; DropSlot gives a slot back unsent), the receiver reads it in place
// and consumes it, and the two counters that order them are the only memory
// they share.
//
// A message over a link is, in virtual terms, the float64 message Send and
// the scattering receives make: the same fault checks, charge, counts (the
// sender's payload draw and the receiver's return are counted although no
// buffer moves), clock advance and queue interval, and the same FIFO order.
// Sends are buffered: a sender never blocks, and a link whose receiver has
// not consumed its every slot grows. A parked receiver waits on the same
// (source, tag) record and death rule as a mailbox receive, so a link message
// wakes it only if it is the one it waits for, and its sender's exit only if
// nothing is pending; a revoke counts and purges pending link messages as it
// does queued ones.
type Link struct {
	src, dst, tag int
	// box is the destination's mailbox: its wait record, cond and world.
	box *mailbox
	// ring holds the slots. Only the sender replaces it (grow), and it stores
	// the new ring before publishing a message into it.
	ring atomic.Pointer[linkRing]
	// pub counts the messages the sender has published, con those the
	// receiver has consumed; pub-con are pending. Each is written by one
	// side only (and by a revoke, when no rank runs).
	pub, con atomic.Uint64
	// taken is set from TakeSlot to SendSlot or DropSlot, while the sender
	// fills slot pub. Sender only (and a revoke).
	taken bool
	// first is the ring the link is made with, and env its envelopes.
	first linkRing
	env   [linkDepth]linkMsg
}

// linkRing is a power-of-two ring of message slots, width elements each:
// message s lives in slot s mod len(msgs).
type linkRing struct {
	width int
	msgs  []linkMsg
	data  []float64
}

// linkMsg is one slot's envelope: the payload length and, as in a message,
// the virtual time at which the payload is fully delivered.
type linkMsg struct {
	n        int
	arriveAt float64
}

// linkDepth is the slot count a link starts with. A symmetric exchange —
// each rank receives from every rank it sends to — keeps a sender at most
// two messages ahead of its receiver: it cannot send message k+2 before
// receiving its peer's k+1, which the peer sends only after consuming k.
const linkDepth = 2

// slot returns message s's envelope and its width-element payload slot.
func (rg *linkRing) slot(s uint64) (*linkMsg, []float64) {
	i := int(s) & (len(rg.msgs) - 1)
	return &rg.msgs[i], rg.data[i*rg.width : (i+1)*rg.width]
}

// link returns the link (src, owner, tag), making it on first use.
func (mb *mailbox) link(src, dst, tag int) *Link {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, l := range mb.links {
		if l.src == src && l.tag == tag {
			return l
		}
	}
	l := &Link{src: src, dst: dst, tag: tag, box: mb}
	l.first.msgs = l.env[:]
	l.ring.Store(&l.first)
	mb.links = append(mb.links, l)
	return l
}

// LinkTo returns the sending end of the link from this rank to dst under
// tag, with room for payloads of n elements. A rank that sends payloads of
// several sizes on one link opens it once per size; the link keeps the
// largest.
func (r *Rank) LinkTo(dst, tag, n int) *Link {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mp: link to invalid rank %d", dst))
	}
	l := r.world.boxes[dst].link(r.id, dst, tag)
	if rg := l.ring.Load(); n > rg.width {
		if l.taken {
			panic(fmt.Sprintf("mp: rank %d widens its link to rank %d while filling a slot", r.id, dst))
		}
		if l.pub.Load() == 0 {
			// Nothing was ever published, so the ring is still the first and
			// no receiver has read it: it is sized in place, by its one
			// allocation.
			rg.width, rg.data = n, make([]float64, len(rg.msgs)*n)
		} else {
			l.grow(n)
		}
	}
	return l
}

// LinkFrom returns the receiving end of the link from src to this rank
// under tag.
func (r *Rank) LinkFrom(src, tag int) *Link {
	if src < 0 || src >= r.Size() {
		panic(fmt.Sprintf("mp: link from invalid rank %d", src))
	}
	return r.world.boxes[r.id].link(src, r.id, tag)
}

// grow replaces the ring by one that is at least n wide and, if the ring is
// full, twice as deep, holding the pending messages in their slots. Sender
// only: a receiver reading a pending message from the old ring meanwhile
// reads what it would read from the new one.
func (l *Link) grow(n int) {
	old := l.ring.Load()
	pub, con := l.pub.Load(), l.con.Load()
	depth := len(old.msgs)
	if pub-con == uint64(depth) {
		depth *= 2
	}
	rg := &linkRing{width: max(n, old.width), msgs: make([]linkMsg, depth)}
	rg.data = make([]float64, depth*rg.width)
	for s := con; s < pub; s++ {
		om, op := old.slot(s)
		m, p := rg.slot(s)
		*m = *om
		copy(p, op[:om.n])
	}
	l.ring.Store(rg)
}

// TakeSlot returns the next payload slot of l, which must start at this
// rank, n elements long, for the caller to fill and SendSlot to send. The
// link has one slot to give at a time: taking a second before sending the
// first panics.
func (r *Rank) TakeSlot(l *Link, n int) []float64 {
	if l.src != r.id {
		panic(fmt.Sprintf("mp: rank %d sends on the link from rank %d", r.id, l.src))
	}
	if l.taken {
		panic(fmt.Sprintf("mp: rank %d takes a second slot on its link to rank %d before sending the first", r.id, l.dst))
	}
	s := l.pub.Load()
	rg := l.ring.Load()
	if n > rg.width || s-l.con.Load() == uint64(len(rg.msgs)) {
		l.grow(n)
		rg = l.ring.Load()
	}
	m, buf := rg.slot(s)
	m.n, l.taken = n, true
	return buf[:n]
}

// SendSlot publishes the slot TakeSlot gave: Send of its values, with the
// same checks, charge and counted payload draw, that moves no buffer.
func (r *Rank) SendSlot(l *Link) {
	if !l.taken {
		panic(fmt.Sprintf("mp: rank %d sends on its link to rank %d with no slot taken", r.id, l.dst))
	}
	r.checkDst(l.dst)
	s := l.pub.Load()
	m, _ := l.ring.Load().slot(s)
	if m.n > 0 {
		r.gets++
	}
	m.arriveAt = r.chargeSend(l.dst, 8*m.n)
	l.taken = false
	l.publish(s + 1)
}

// DropSlot gives back the slot TakeSlot gave, unsent: no message, charge
// or count is made, and the link's next TakeSlot gives the same slot.
func (r *Rank) DropSlot(l *Link) {
	if !l.taken {
		panic(fmt.Sprintf("mp: rank %d gives back a slot on its link to rank %d with none taken", r.id, l.dst))
	}
	l.taken = false
}

// SendGather packs x[idx[0]], x[idx[1]], … into the next slot of l and
// sends it.
func (r *Rank) SendGather(l *Link, x []float64, idx []int) {
	buf := r.TakeSlot(l, len(idx))
	for j, k := range idx {
		buf[j] = x[k]
	}
	r.SendSlot(l)
}

// publish makes the messages before pub visible and wakes the receiver if
// it is parked on exactly this link's source and tag. The receiver records
// its wait before it reads pub again and this reads the record after
// storing pub, both sequentially consistent, so one of them sees the other;
// taking the lock before signalling waits until the receiver is enrolled in
// cond.Wait, as in markDead.
func (l *Link) publish(pub uint64) {
	l.pub.Store(pub)
	mb := l.box
	if mb.waitSrc.Load() != int32(l.src) {
		return
	}
	mb.mu.Lock()
	if mb.waitSrc.Load() == int32(l.src) && mb.waitTag == l.tag {
		mb.waitSrc.Store(noWait)
		mb.cond.Signal()
	}
	mb.mu.Unlock()
}

// await blocks until message s of l is published. Pending messages win over
// death, as in take: only when none is published and the sender has
// terminally exited does the wait unwind. pub is read again after the dead
// flag, because a message published before the exit may have been missed by
// the read before it.
func (mb *mailbox) await(l *Link, s uint64) {
	if l.pub.Load() != s {
		return
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for l.pub.Load() == s {
		mb.waitTag = l.tag
		mb.waitSrc.Store(int32(l.src))
		if l.pub.Load() != s {
			mb.waitSrc.Store(noWait)
			return
		}
		if mb.w.rankDead[l.src].Load() && l.pub.Load() == s {
			mb.waitSrc.Store(noWait)
			panic(killedPanic{})
		}
		mb.cond.Wait()
	}
}

// recvLink is the receive under RecvScatter and RecvAddScatter: it waits
// for l's next message and advances the clock to its arrival, with the
// fault checks of recv, and returns the payload, which must have n elements.
// The payload stays in its slot until the caller consumes it; a receive that
// unwinds consumes it here, as take would have removed it.
func (r *Rank) recvLink(l *Link, n int) []float64 {
	if l.box != r.world.boxes[r.id] {
		panic(fmt.Sprintf("mp: rank %d receives on the link to rank %d", r.id, l.dst))
	}
	r.checkFault()
	s := l.con.Load()
	l.box.await(l, s)
	m, buf := l.ring.Load().slot(s)
	buf = buf[:m.n]
	r.noteRecv(m.arriveAt)
	if r.due() {
		l.con.Store(s + 1)
		panic(killedPanic{})
	}
	if len(buf) != n {
		r.puts++
		l.con.Store(s + 1)
		panic(fmt.Sprintf("mp: link payload %d != positions %d", len(buf), n))
	}
	return buf
}

// RecvScatter receives l's next message, which must end at this rank and
// have len(pos) elements, into x[pos[j]] = payload[j]: Recv and a scatter,
// with the same checks, clock advance and counted payload return, that moves
// no buffer.
func (r *Rank) RecvScatter(l *Link, x []float64, pos []int) {
	buf := r.recvLink(l, len(pos))
	for j, k := range pos {
		x[k] = buf[j]
	}
	r.puts++
	l.con.Add(1)
}

// RecvAddScatter is RecvScatter with accumulation: x[pos[j]] += payload[j].
func (r *Rank) RecvAddScatter(l *Link, x []float64, pos []int) {
	buf := r.recvLink(l, len(pos))
	for j, k := range pos {
		x[k] += buf[j]
	}
	r.puts++
	l.con.Add(1)
}

// revokeLinks purges the pending messages of the links whose source
// satisfies stale, and a slot taken and never sent, and returns the number
// of messages. Runs under mb.mu, with no rank running.
func (mb *mailbox) revokeLinks(stale func(src int) bool) int {
	n := 0
	for _, l := range mb.links {
		if stale(l.src) {
			pub := l.pub.Load()
			n += int(pub - l.con.Load())
			l.con.Store(pub)
			l.taken = false
		}
	}
	return n
}

package mp

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// ReduceOp is an element-wise reduction operator for collectives.
type ReduceOp int

const (
	// OpSum adds elements.
	OpSum ReduceOp = iota
	// OpMax keeps the element-wise maximum.
	OpMax
	// OpMin keeps the element-wise minimum.
	OpMin
)

func (op ReduceOp) apply(dst, src []float64) {
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	}
}

// Collective tags live in their own negative namespace: every collective
// call consumes one sequence number; all ranks execute the same collective
// sequence so equal numbers pair up. The kind is mixed in so that a
// mismatched program (rank 0 in a Bcast while rank 1 is in a Barrier) fails
// loudly by deadlocking in tests rather than silently exchanging data. Kinds
// 3–7 are unused and stay reserved, so that no tag value changes.
const (
	collKinds    = 9
	kindBarrier  = 0
	kindBcast    = 1
	kindReduce   = 2
	kindExchange = 8
)

func (r *Rank) collTag(kind int) int {
	tag := -(1 + r.collSeq*collKinds + kind)
	r.collSeq++
	return tag
}

// Barrier blocks until every rank has entered it, using a dissemination
// pattern (ceil(log2 P) rounds of paired messages).
func (r *Rank) Barrier() {
	p := r.Size()
	tag := r.collTag(kindBarrier)
	for k := 1; k < p; k <<= 1 {
		Send[float64](r, (r.id+k)%p, tag, nil)
		Recv[float64](r, (r.id-k+p)%p, tag)
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns each rank's copy, a slice no other rank holds. Non-root ranks pass
// their (possibly nil) buffer, which is ignored. The root's data is the
// tree's one payload, handed from rank to rank under Send's contract, so the
// root must not write it after the call; each rank returns a copy of it.
func (r *Rank) Bcast(root int, data []float64) []float64 {
	p := r.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mp: bcast root %d out of range", root))
	}
	tag := r.collTag(kindBcast)
	rel := (r.id - root + p) % p
	buf := data
	// Receive once from the parent (unless root), then forward to the
	// children below the mask at which it arrived.
	mask := 1
	for ; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			buf = Recv[float64](r, (rel-mask+root)%p, tag)
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			Send(r, (rel+mask+root)%p, tag, buf)
		}
	}
	return slices.Clone(buf)
}

// ExchangeInts sends payload(i) to peers[i] and returns what the ranks that
// named this one sent it, sources ascending: the set-up step of a sparse
// communication plan, where a rank knows whom it will message but not who will
// message it. A peer listed twice is one peer, messaged once (payload is asked
// for its first index); naming oneself or a rank outside the world is a bug
// and panics. The streams are mailbox messages under Send's hand-over
// contract: a sender must not write one after its send, and the receiver may
// rewrite one in place (NewImporter's receivers do) only if its sender never
// sends it again. A sender may re-send a payload, in a later exchange or to
// two peers, that all its receivers only read: a matrix build re-sends the
// pair streams of the last build from the same assembly, and build and bind
// read them.
//
// How many will send is learnt at virtual cost, as a distributor's census
// learns it: one P-length indicator Allreduce, 1 at each peer, whose own entry
// is the count. Who is learnt on the host: each rank first files its id with
// its peers' mailboxes. Every rank files before it enters the Allreduce and
// reads its own list after the Allreduce has woken it, and the Allreduce
// resolves under its lock only once every rank has entered, so every filing
// is ordered before any reader, and a list that disagrees with the count is a
// broken invariant. The receives are then directed, so a sender that dies is
// observed by take's per-sender rule like any other; the streams travel under
// a collective tag, through each source's FIFO like every mailbox message.
func (r *Rank) ExchangeInts(peers []int, payload func(i int) []int) (srcs []int, recv [][]int) {
	tag := r.collTag(kindExchange)
	// ind[p] is 1 from p's filing. The census sums ind in place, which
	// leaves it at least 1 at every peer until p's stream is sent.
	if r.census == nil {
		r.census = make([]float64, r.Size())
	}
	ind := r.census
	clear(ind)
	for _, p := range peers {
		if p < 0 || p >= r.Size() || p == r.id {
			panic(fmt.Sprintf("mp: rank %d of %d names peer %d in an exchange", r.id, r.Size(), p))
		}
		if ind[p] == 0 {
			ind[p] = 1
			r.world.boxes[p].file(tag, r.id)
		}
	}
	r.allreduce(OpSum, ind, true)
	n := int(ind[r.id] + 0.5)
	srcs = r.world.boxes[r.id].senders(tag, n)
	if len(srcs) != n {
		panic(fmt.Sprintf("mp: exchange census counted %d senders to rank %d, %d filed", n, r.id, len(srcs)))
	}
	for i, p := range peers {
		if ind[p] != 0 {
			ind[p] = 0
			Send(r, p, tag, payload(i))
		}
	}
	recv = make([][]int, n)
	for i, src := range srcs {
		recv[i] = Recv[int](r, src, tag)
	}
	return srcs, recv
}

// Allreduce combines data from all ranks with op and returns the result on
// every rank, in a fresh slice. data is not modified. Every rank must pass as
// many elements: a rank that is sent a contribution of another length
// panics, as the tree's receiver would.
//
// Its virtual outcome is that of a binomial Reduce to rank 0 followed by a
// binomial Bcast from it (2·ceil(log2 P) stages), each message a Send and a
// Recv of the rank's accumulator: tags, message sizes, combination
// order, clock charges, queue intervals, message and payload counts and
// fault points. On the host no message moves: see AllreduceScalar.
func (r *Rank) Allreduce(op ReduceOp, data []float64) []float64 {
	acc := append([]float64(nil), data...)
	r.allreduce(op, acc, true)
	return acc
}

// AllreduceScalar is Allreduce for a single value — the reduction under
// every distributed dot product, so it runs several times per Krylov
// iteration on every rank. Its payload lives in the rank's slot, so a call
// allocates nothing, and each of its receives counts a payload return and
// records no queue interval, as the one-element messages it once moved did.
//
// Neither form moves a message. Each rank files its payload and parks; the
// event that completes the set — the last rank arriving, or a rank exiting
// (World.markDead) while every other rank is parked here — replays both
// trees over every rank's state at once and wakes each rank with its
// verdict: the result, death at the point of the tree where the rank would
// have died, or the panic of a length mismatch.
func (r *Rank) AllreduceScalar(op ReduceOp, x float64) float64 {
	sl := &r.world.allreduce.slots[r.id]
	sl.one[0] = x
	r.allreduce(op, sl.one[:], false)
	return sl.one[0]
}

// allreduce reduces buf in place across the world; vector selects the
// receive accounting of Allreduce over that of AllreduceScalar.
func (r *Rank) allreduce(op ReduceOp, buf []float64, vector bool) {
	if op < OpSum || op > OpMin {
		panic(fmt.Sprintf("mp: unknown reduce op %d", op))
	}
	tags := [2]int{r.collTag(kindReduce), r.collTag(kindBcast)}
	if r.Size() == 1 {
		return
	}
	s := &r.world.allreduce
	sl := &s.slots[r.id]
	s.mu.Lock()
	sl.buf, sl.op, sl.tags, sl.vector = buf, op, tags, vector
	s.in++
	if s.in+s.out == len(s.slots) {
		s.resolve()
		s.mu.Unlock()
		s.wake(r.id)
	} else {
		s.mu.Unlock()
		<-sl.wake
	}
	if sl.fault != "" {
		panic(sl.fault)
	}
	if sl.dead {
		panic(killedPanic{})
	}
}

// allreduceColl is a world's allreduce: one slot per rank, made once per
// world by Run, and the count of ranks the pending collective is waiting on.
// mu guards the counts and the slots (but see wake), and the state of every
// parked rank (clock, recorder, payload counts), which resolve charges in the
// rank's stead.
type allreduceColl struct {
	mu    sync.Mutex
	slots []allreduceSlot
	// in counts the ranks parked in the pending collective, out the ranks
	// that have exited. The collective is complete when they add up to P.
	in, out int
}

// allreduceSlot is one rank's part in the allreduce.
type allreduceSlot struct {
	r *Rank
	// buf is the rank's contribution, reduced in place into its result: the
	// caller's accumulator for Allreduce, one for AllreduceScalar. It is
	// also the payload of every message the rank sends.
	buf    []float64
	one    [1]float64
	op     ReduceOp
	vector bool
	tags   [2]int // reduce and broadcast tags of the rank's collective
	// exited is set when the rank's goroutine ends: it never sends again.
	// dead is the verdict that the collective kills the rank, and fault the
	// panic of a length mismatch that kills it.
	exited, dead bool
	fault        string
	// sent and at are the message in flight between the rank and its tree
	// parent — up the reduce tree, then down the broadcast tree — and its
	// arrival time. Its payload is the sender's buf.
	sent bool
	at   float64
	wake chan struct{}
}

// resolve completes the pending collective once every rank has arrived or
// exited, leaving each arrived rank's verdict in its slot for wake to deliver.
// It runs each arrived rank's part of the two trees in an order where every
// message is sent before its receive comes up: in the reduce, children have
// lower lowest set bits than their parent and rank 0 goes last; in the
// broadcast, rank 0 goes first and parents have higher ones. A receive that
// finds no message finds a sender that has died or exited, and kills the
// receiver as take would.
func (s *allreduceColl) resolve() {
	p := len(s.slots)
	for low := 1; low < p; low <<= 1 {
		for i := low; i < p; i += 2 * low {
			s.reduce(i)
		}
	}
	s.reduce(0)
	s.strand(false)
	s.bcast(0)
	for low := 1 << (bits.Len(uint(p-1)) - 1); low > 0; low >>= 1 {
		for i := low; i < p; i += 2 * low {
			s.bcast(i)
		}
	}
	s.strand(true)
	s.in = 0
}

// wake wakes every rank parked in the collective resolve has just completed,
// that is every rank but self (-1 when an exit resolved it) that had not
// exited. It runs after mu is released: until it has woken them all, no
// parked rank can arrive again, so no other collective can complete, and a
// rank's exited flag is written only by the rank itself, never while it is
// parked.
func (s *allreduceColl) wake(self int) {
	for i := range s.slots {
		if i != self && !s.slots[i].exited {
			s.slots[i].wake <- struct{}{}
		}
	}
}

// reduce is rank i's Reduce leg: fold in the children i+1, i+2, i+4, …
// below its lowest set bit, in that order, then send to the parent. A child
// whose payload has another length than the rank's kills the rank with the
// panic the tree's fold raised.
func (s *allreduceColl) reduce(i int) {
	sl := &s.slots[i]
	if sl.exited {
		return
	}
	sl.dead, sl.fault = false, ""
	for mask := 1; mask < len(s.slots); mask <<= 1 {
		if i&mask != 0 {
			sl.send(i-mask, sl)
			return
		}
		if c := i + mask; c < len(s.slots) {
			child := &s.slots[c]
			if !sl.recv(child) {
				return
			}
			if len(child.buf) != len(sl.buf) {
				sl.dead = true
				sl.fault = fmt.Sprintf("mp: reduce length mismatch %d vs %d", len(sl.buf), len(child.buf))
				return
			}
			sl.op.apply(sl.buf, child.buf)
		}
	}
}

// bcast is rank i's Bcast leg: receive from the parent (rank 0 has none),
// then send to the children below the lowest set bit, largest first. The
// reduce has held every rank's length to the root's.
func (s *allreduceColl) bcast(i int) {
	sl := &s.slots[i]
	if sl.exited || sl.dead {
		return
	}
	mask := 1
	for mask < len(s.slots) && i&mask == 0 {
		mask <<= 1
	}
	if i != 0 {
		if !sl.recv(sl) {
			return
		}
		copy(sl.buf, s.slots[i-mask].buf)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if c := i + mask; c < len(s.slots) && !sl.send(c, &s.slots[c]) {
			return
		}
	}
}

// send is the slot's rank sending its buf to dst, leaving the message in
// msg: the fault check, the counted payload draw and the charge, as Send
// makes them.
func (sl *allreduceSlot) send(dst int, msg *allreduceSlot) bool {
	r := sl.r
	if r.due() {
		sl.dead = true
		return false
	}
	if len(sl.buf) > 0 {
		r.gets++
	}
	msg.at, msg.sent = r.chargeSend(dst, 8*len(sl.buf)), true
	return true
}

// recv is the matching receive by the slot's rank: fault check, take, clock
// advance to the arrival, fault check. Allreduce's receive also records the
// queue interval, as Recv does; AllreduceScalar's instead counts the
// payload's return.
func (sl *allreduceSlot) recv(msg *allreduceSlot) bool {
	r := sl.r
	if r.due() || !msg.sent {
		sl.dead = true
		return false
	}
	msg.sent = false
	if sl.vector {
		r.noteRecv(msg.at)
	} else {
		r.clk.AdvanceTo(msg.at)
	}
	if r.due() {
		sl.dead = true
		return false
	}
	if !sl.vector {
		r.puts++
	}
	return true
}

// strand leaves each message of one leg that its receiver never took, having
// died first, in the receiver's mailbox, where the message tree leaves it, so
// that a revoke counts it (Reformed.Revoked). It carries no payload.
func (s *allreduceColl) strand(bcast bool) {
	for c := 1; c < len(s.slots); c++ {
		sl := &s.slots[c]
		if !sl.sent {
			continue
		}
		sl.sent = false
		parent := c - c&-c
		src, dst, tag := c, parent, sl.tags[0]
		if bcast {
			src, dst, tag = parent, c, s.slots[parent].tags[1]
		}
		sl.r.world.boxes[dst].put(message{src: int32(src), tag: tag, arriveAt: sl.at})
	}
}

// exit records that rank id has exited and resolves the pending collective
// if the rank was the last one it waited on.
func (s *allreduceColl) exit(id int) {
	s.mu.Lock()
	s.slots[id].exited = true
	s.out++
	done := s.in > 0 && s.in+s.out == len(s.slots)
	if done {
		s.resolve()
	}
	s.mu.Unlock()
	if done {
		s.wake(-1)
	}
}

package mp

import (
	"fmt"
	"math/bits"
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
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mp: reduce length mismatch %d vs %d", len(dst), len(src)))
	}
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
	default:
		panic(fmt.Sprintf("mp: unknown reduce op %d", op))
	}
}

// Collective tags live in their own negative namespace: every collective
// call consumes one sequence number; all ranks execute the same collective
// sequence so equal numbers pair up. The kind is mixed in so that a
// mismatched program (rank 0 in a Bcast while rank 1 is in a Reduce) fails
// loudly by deadlocking in tests rather than silently exchanging data.
const (
	collKinds    = 9
	kindBarrier  = 0
	kindBcast    = 1
	kindReduce   = 2
	kindGather   = 3
	kindAGather  = 4
	kindAlltoall = 5
	kindScatter  = 6
	kindScan     = 7
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
	if p == 1 {
		r.collSeq++
		return
	}
	tag := r.collTag(kindBarrier)
	for k := 1; k < p; k <<= 1 {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		r.SendF64(dst, tag, nil)
		r.RecvF64(src, tag)
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns each rank's copy. Non-root ranks pass their (possibly nil) buffer;
// the returned slice holds the broadcast data.
func (r *Rank) Bcast(root int, data []float64) []float64 {
	out := r.bcast(root, data)
	if r.id == root {
		out = make([]float64, len(data))
		copy(out, data)
	}
	return out
}

// bcast is Bcast without the root's copy: the root gets buf itself back.
func (r *Rank) bcast(root int, buf []float64) []float64 {
	p := r.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mp: bcast root %d out of range", root))
	}
	tag := r.collTag(kindBcast)
	rel := (r.id - root + p) % p
	// Receive once from the parent (unless root).
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			buf = r.RecvF64(src, tag)
			break
		}
		mask <<= 1
	}
	// Forward to children below the mask at which we received.
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			r.SendF64(dst, tag, buf)
		}
		mask >>= 1
	}
	return buf
}

// Reduce combines data from all ranks with op along a binomial tree and
// returns the result on root (nil elsewhere). data is not modified. The
// accumulator is a pool buffer: every rank but the root sends its own on as
// the payload, the root's passes to the caller, and the children's payloads
// go back to the pool once folded in.
func (r *Rank) Reduce(root int, op ReduceOp, data []float64) []float64 {
	p := r.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mp: reduce root %d out of range", root))
	}
	tag := r.collTag(kindReduce)
	acc := r.pool.scratch(len(data))
	copy(acc, data)
	rel := (r.id - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			r.sendOwned((rel-mask+root)%p, tag, acc)
			return nil
		}
		if rel+mask < p {
			buf := r.RecvF64((rel+mask+root)%p, tag)
			op.apply(acc, buf)
			r.pool.release(buf)
		}
	}
	return acc
}

// sendOwned is SendF64 for a buffer the caller drew with scratch and is done
// with: it travels itself instead of a copy. The draw is counted here, where
// SendF64 would have made it.
func (r *Rank) sendOwned(dst, tag int, buf []float64) {
	r.checkDst(dst)
	if len(buf) > 0 {
		r.pool.gets++
	}
	r.post(dst, tag, 8*len(buf), f64Msg(buf))
}

// Allreduce combines data from all ranks with op and returns the result on
// every rank (Reduce to rank 0 followed by Bcast, 2·ceil(log2 P) stages).
func (r *Rank) Allreduce(op ReduceOp, data []float64) []float64 {
	return r.bcast(0, r.Reduce(0, op, data))
}

// ExchangeInts sends payload(i) to peers[i] and returns what the ranks that
// named this one sent it, sources ascending: the set-up step of a sparse
// communication plan, where a rank knows whom it will message but not who will
// message it. A peer listed twice is one peer, messaged once (payload is asked
// for its first index); naming oneself or a rank outside the world is a bug
// and panics. A payload is handed over, not copied: from its send on it
// belongs to the receiver (NewImporter's receivers rewrite theirs in place),
// so the sender must neither reuse one nor return one slice for two peers.
//
// How many will send is learnt at virtual cost, as a distributor's census
// learns it: one P-length indicator Allreduce, 1 at each peer, whose own entry
// is the count. Who is learnt on the host: each rank first files its id with
// its peers' mailboxes. Every rank files before it contributes to the
// Allreduce and reads its own list after the result has reached it, so the
// Allreduce's message chain orders every filing before any reader, and a list
// that disagrees with the count is a broken invariant. The receives are then
// directed, so a sender that dies is observed by take's per-sender rule like
// any other; the streams travel under a collective tag, in each source's
// collective FIFO, and leave no per-tag queue behind.
func (r *Rank) ExchangeInts(peers []int, payload func(i int) []int) (srcs []int, recv [][]int) {
	tag := r.collTag(kindExchange)
	// ind[p] is 1 from p's filing until p's stream is sent.
	ind := r.pool.scratch(r.Size())
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
	sum := r.Allreduce(OpSum, ind)
	n := int(sum[r.id] + 0.5)
	r.pool.release(sum)
	srcs = r.world.boxes[r.id].senders(tag, n)
	if len(srcs) != n {
		panic(fmt.Sprintf("mp: exchange census counted %d senders to rank %d, %d filed", n, r.id, len(srcs)))
	}
	for i, p := range peers {
		if ind[p] == 1 {
			ind[p] = 0
			stream := payload(i)
			r.checkDst(p)
			r.post(p, tag, 8*len(stream), intsMsg(stream))
		}
	}
	r.pool.release(ind)
	recv = make([][]int, n)
	for i, src := range srcs {
		recv[i] = r.RecvInts(src, tag)
	}
	return srcs, recv
}

// applyScalar is the one-element form of apply, with the identical
// floating-point evaluation order (acc op= v).
func (op ReduceOp) applyScalar(acc, v float64) float64 {
	switch op {
	case OpSum:
		return acc + v
	case OpMax:
		if v > acc {
			return v
		}
		return acc
	case OpMin:
		if v < acc {
			return v
		}
		return acc
	default:
		panic(fmt.Sprintf("mp: unknown reduce op %d", op))
	}
}

// AllreduceScalar is Allreduce for a single value — the reduction under
// every distributed dot product, so it runs several times per Krylov
// iteration on every rank.
//
// Its virtual outcome is that of Allreduce over one-element payloads, rank by
// rank and bit for bit: the binomial Reduce to rank 0 and Bcast from it, with
// their tags, message sizes, combination order, clock charges, message and
// pool counts and fault points. On the host no message moves. Each rank files
// its value and parks; the event that completes the set — the last rank
// arriving, or a rank exiting (World.markDead) while every other rank is
// parked here — replays both trees over every rank's state at once and wakes
// each rank with its verdict: the result, or death at the point of the tree
// where the rank would have died.
func (r *Rank) AllreduceScalar(op ReduceOp, x float64) float64 {
	tags := [2]int{r.collTag(kindReduce), r.collTag(kindBcast)}
	if r.Size() == 1 {
		return x
	}
	s := &r.world.scalar
	sl := &s.slots[r.id]
	s.mu.Lock()
	sl.x, sl.op, sl.tags = x, op, tags
	s.in++
	if s.in+s.out == len(s.slots) {
		s.resolve()
		s.mu.Unlock()
		s.wake(r.id)
	} else {
		s.mu.Unlock()
		<-sl.wake
	}
	if sl.dead {
		panic(killedPanic{})
	}
	return sl.x
}

// scalarColl is a world's scalar allreduce: one slot per rank, made once per
// world by Run, and the count of ranks the pending collective is waiting on.
// mu guards the counts and the slots (but see wake), and the state of every
// parked rank (clock, recorder, pool counts), which resolve charges in the
// rank's stead.
type scalarColl struct {
	mu    sync.Mutex
	slots []scalarSlot
	// in counts the ranks parked in the pending collective, out the ranks
	// that have exited. The collective is complete when they add up to P.
	in, out int
}

// scalarSlot is one rank's part in the scalar allreduce.
type scalarSlot struct {
	r *Rank
	// x is the rank's contribution and, once resolved, its result.
	x    float64
	op   ReduceOp
	tags [2]int // reduce and broadcast tags of the rank's collective
	// exited is set when the rank's goroutine ends: it never sends again.
	// dead is the verdict that the collective kills the rank.
	exited, dead bool
	// sent, val and at are the message in flight between the rank and its
	// tree parent — up the reduce tree, then down the broadcast tree.
	sent    bool
	val, at float64
	wake    chan struct{}
}

// resolve completes the pending collective once every rank has arrived or
// exited, leaving each arrived rank's verdict in its slot for wake to deliver.
// It runs each arrived rank's part of the two trees in an order where every
// message is sent before its receive comes up: in the reduce, children have
// lower lowest set bits than their parent and rank 0 goes last; in the
// broadcast, rank 0 goes first and parents have higher ones. A receive that
// finds no message finds a sender that has died or exited, and kills the
// receiver as take would.
func (s *scalarColl) resolve() {
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
func (s *scalarColl) wake(self int) {
	for i := range s.slots {
		if i != self && !s.slots[i].exited {
			s.slots[i].wake <- struct{}{}
		}
	}
}

// reduce is rank i's Reduce leg: fold in the children i+1, i+2, i+4, …
// below its lowest set bit, in that order, then send to the parent.
func (s *scalarColl) reduce(i int) {
	sl := &s.slots[i]
	if sl.exited {
		return
	}
	sl.dead = false
	acc := sl.x
	for mask := 1; mask < len(s.slots); mask <<= 1 {
		if i&mask != 0 {
			sl.send(i-mask, acc, sl)
			return
		}
		if c := i + mask; c < len(s.slots) {
			v, ok := sl.recv(&s.slots[c])
			if !ok {
				return
			}
			acc = sl.op.applyScalar(acc, v)
		}
	}
	sl.x = acc
}

// bcast is rank i's Bcast leg: receive from the parent (rank 0 has none),
// then send to the children below the lowest set bit, largest first.
func (s *scalarColl) bcast(i int) {
	sl := &s.slots[i]
	if sl.exited || sl.dead {
		return
	}
	mask := 1
	for mask < len(s.slots) && i&mask == 0 {
		mask <<= 1
	}
	if i != 0 {
		v, ok := sl.recv(sl)
		if !ok {
			return
		}
		sl.x = v
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if c := i + mask; c < len(s.slots) && !sl.send(c, sl.x, &s.slots[c]) {
			return
		}
	}
}

// send is a one-element send by the slot's rank, leaving the message in
// msg: the fault check, the counted pool draw and the charge, as SendF64
// makes them.
func (sl *scalarSlot) send(dst int, v float64, msg *scalarSlot) bool {
	r := sl.r
	if r.due() {
		sl.dead = true
		return false
	}
	r.pool.gets++
	msg.val, msg.at, msg.sent = v, r.chargeSend(dst, 8), true
	return true
}

// recv is the matching receive by the slot's rank: fault check, take, clock
// advance to the arrival, fault check, counted return of the payload.
func (sl *scalarSlot) recv(msg *scalarSlot) (float64, bool) {
	r := sl.r
	if r.due() || !msg.sent {
		sl.dead = true
		return 0, false
	}
	msg.sent = false
	r.clk.AdvanceTo(msg.at)
	if r.due() {
		sl.dead = true
		return 0, false
	}
	r.pool.puts++
	return msg.val, true
}

// strand leaves each message of one leg that its receiver never took, having
// died first, in the receiver's mailbox, where the message tree leaves it, so
// that a revoke counts it (Shrink.Revoked). It carries no payload.
func (s *scalarColl) strand(bcast bool) {
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
func (s *scalarColl) exit(id int) {
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

// Gather collects each rank's (variable-length) data on root, returned as a
// per-rank slice on root and nil elsewhere.
func (r *Rank) Gather(root int, data []float64) [][]float64 {
	p := r.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mp: gather root %d out of range", root))
	}
	tag := r.collTag(kindGather)
	if r.id != root {
		r.SendF64(root, tag, data)
		return nil
	}
	out := make([][]float64, p)
	own := make([]float64, len(data))
	copy(own, data)
	out[root] = own
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		out[src] = r.RecvF64(src, tag)
	}
	return out
}

// Allgather collects each rank's (variable-length) data on every rank using
// a ring: P−1 steps, each forwarding one block to the right neighbour.
func (r *Rank) Allgather(data []float64) [][]float64 {
	p := r.Size()
	tag := r.collTag(kindAGather)
	out := make([][]float64, p)
	own := make([]float64, len(data))
	copy(own, data)
	out[r.id] = own
	right := (r.id + 1) % p
	left := (r.id - 1 + p) % p
	cur := own
	for step := 1; step < p; step++ {
		r.SendF64(right, tag, cur)
		cur = r.RecvF64(left, tag)
		out[(r.id-step+p)%p] = cur
	}
	return out
}

// Scatter distributes root's per-rank blocks: rank i receives send[i]
// (send is ignored on non-root ranks).
func (r *Rank) Scatter(root int, send [][]float64) []float64 {
	p := r.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mp: scatter root %d out of range", root))
	}
	tag := r.collTag(kindScatter)
	if r.id == root {
		if len(send) != p {
			panic(fmt.Sprintf("mp: scatter needs %d blocks, got %d", p, len(send)))
		}
		for dst := 0; dst < p; dst++ {
			if dst == root {
				continue
			}
			r.SendF64(dst, tag, send[dst])
		}
		own := make([]float64, len(send[root]))
		copy(own, send[root])
		return own
	}
	return r.RecvF64(root, tag)
}

// Scan computes the inclusive prefix reduction: rank i receives
// op(data₀, …, dataᵢ), using a linear chain (deterministic and exact for
// the rank-ordered partial sums distributed assembly needs).
func (r *Rank) Scan(op ReduceOp, data []float64) []float64 {
	p := r.Size()
	tag := r.collTag(kindScan)
	acc := make([]float64, len(data))
	copy(acc, data)
	if r.id > 0 {
		prev := r.RecvF64(r.id-1, tag)
		// acc = op(prefix, own): apply onto the prefix to preserve order.
		op.apply(prev, acc)
		acc = prev
	}
	if r.id < p-1 {
		r.SendF64(r.id+1, tag, acc)
	}
	return acc
}

// ReduceScatter reduces send element-wise across ranks and scatters the
// result: rank i receives the reduced block that rank-local send[i]
// contributed to. Implemented as Reduce followed by Scatter.
func (r *Rank) ReduceScatter(op ReduceOp, send [][]float64) []float64 {
	p := r.Size()
	if len(send) != p {
		panic(fmt.Sprintf("mp: reduce-scatter needs %d blocks, got %d", p, len(send)))
	}
	// Flatten for the tree reduction.
	sizes := make([]int, p)
	total := 0
	for i, blk := range send {
		sizes[i] = len(blk)
		total += len(blk)
	}
	flat := make([]float64, 0, total)
	for _, blk := range send {
		flat = append(flat, blk...)
	}
	reduced := r.Reduce(0, op, flat)
	var blocks [][]float64
	if r.id == 0 {
		blocks = make([][]float64, p)
		off := 0
		for i := range blocks {
			blocks[i] = reduced[off : off+sizes[i]]
			off += sizes[i]
		}
	}
	return r.Scatter(0, blocks)
}

// Alltoall delivers send[i] from this rank to rank i and returns the blocks
// received from every rank, using a pairwise exchange schedule.
func (r *Rank) Alltoall(send [][]float64) [][]float64 {
	p := r.Size()
	if len(send) != p {
		panic(fmt.Sprintf("mp: alltoall needs %d blocks, got %d", p, len(send)))
	}
	tag := r.collTag(kindAlltoall)
	out := make([][]float64, p)
	own := make([]float64, len(send[r.id]))
	copy(own, send[r.id])
	out[r.id] = own
	for step := 1; step < p; step++ {
		dst := (r.id + step) % p
		src := (r.id - step + p) % p
		r.SendF64(dst, tag, send[dst])
		out[src] = r.RecvF64(src, tag)
	}
	return out
}

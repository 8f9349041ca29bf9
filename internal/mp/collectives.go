package mp

import "fmt"

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

// sendScalar and recvScalar move one float64 through pooled one-element
// payloads — the transport under the allocation-free scalar collectives.
func (r *Rank) sendScalar(dst, tag int, v float64) {
	r.checkDst(dst)
	cp := r.pool.get(1)
	cp[0] = v
	r.post(dst, tag, 8, f64Msg(cp))
}

func (r *Rank) recvScalar(src, tag int) float64 {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.clk.AdvanceTo(m.arriveAt)
	r.checkFault()
	buf := m.f64()
	v := buf[0]
	r.pool.put(buf)
	return v
}

// AllreduceScalar is Allreduce for a single value — the reduction under
// every distributed dot product, so it runs twice per Krylov iteration on
// every rank. It mirrors Reduce(0)+Bcast(0) exactly (same binomial trees,
// tag sequence, message sizes and combination order, hence bit-identical
// values and virtual times) while keeping the payloads pooled.
func (r *Rank) AllreduceScalar(op ReduceOp, x float64) float64 {
	p := r.Size()
	acc := x
	// Reduce to rank 0 (kindReduce tag, as Allreduce's Reduce leg).
	tag := r.collTag(kindReduce)
	if p > 1 {
		rel := r.id
		for mask := 1; mask < p; mask <<= 1 {
			if rel&mask == 0 {
				if rel+mask < p {
					acc = op.applyScalar(acc, r.recvScalar(rel+mask, tag))
				}
			} else {
				r.sendScalar(rel-mask, tag, acc)
				break
			}
		}
	}
	// Bcast from rank 0 (kindBcast tag, as Allreduce's Bcast leg).
	tag = r.collTag(kindBcast)
	if p > 1 {
		rel := r.id
		mask := 1
		for mask < p {
			if rel&mask != 0 {
				acc = r.recvScalar(rel-mask, tag)
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for ; mask > 0; mask >>= 1 {
			if rel+mask < p {
				r.sendScalar(rel+mask, tag, acc)
			}
		}
	}
	return acc
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

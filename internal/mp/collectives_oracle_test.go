package mp

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The vector collectives as they were before they recycled their vectors:
// a fresh accumulator per rank, sent on as a second copy, the children's
// payloads left to the GC, the root's broadcast result a third copy, and a
// census that made its indicator and dropped the sum. They are the oracle
// for Reduce, Allreduce and ExchangeInts: same trees, tags, sizes and
// combination order, hence the same bits, virtual times and traffic counts.

func refBcast(r *Rank, root int, data []float64) []float64 {
	p := r.Size()
	tag := r.collTag(kindBcast)
	if p == 1 {
		return append([]float64(nil), data...)
	}
	rel := (r.id - root + p) % p
	buf := data
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			buf = r.RecvF64((rel-mask+root)%p, tag)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			r.SendF64((rel+mask+root)%p, tag, buf)
		}
	}
	if rel == 0 {
		return append([]float64(nil), buf...)
	}
	return buf
}

func refReduce(r *Rank, root int, op ReduceOp, data []float64) []float64 {
	p := r.Size()
	tag := r.collTag(kindReduce)
	acc := append([]float64(nil), data...)
	rel := (r.id - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			r.SendF64((rel-mask+root)%p, tag, acc)
			return nil
		}
		if rel+mask < p {
			op.apply(acc, r.RecvF64((rel+mask+root)%p, tag))
		}
	}
	return acc
}

func refCensus(r *Rank, peers []int) int {
	ind := make([]float64, r.Size())
	for _, p := range peers {
		ind[p] = 1
	}
	return int(refBcast(r, 0, refReduce(r, 0, OpSum, ind))[r.id] + 0.5)
}

// exchangeTag is the application tag refExchange sends its streams under.
const exchangeTag = 1000

// refExchange is the exchange as a distributor makes it that is told its
// senders: the census says how many, the streams travel under an application
// tag and are received directed, in ascending source order. senders is the
// test's own inversion of the peer lists.
func refExchange(senders func(id int) []int) func(r *Rank, peers []int, payload func(i int) []int) ([]int, [][]int) {
	return func(r *Rank, peers []int, payload func(i int) []int) ([]int, [][]int) {
		srcs := senders(r.id)
		if n := refCensus(r, peers); n != len(srcs) {
			panic(fmt.Sprintf("reference census counted %d senders to rank %d, the test expects %v", n, r.id, srcs))
		}
		for i, p := range peers {
			r.SendInts(p, exchangeTag, payload(i))
		}
		recv := make([][]int, len(srcs))
		for i, src := range srcs {
			recv[i] = r.RecvInts(src, exchangeTag)
		}
		return srcs, recv
	}
}

// exchangePeers is the oracle's peer pattern: up to three distinct peers per
// rank, irregular enough that ranks are named by none, one and several.
func exchangePeers(id, p int) []int {
	var peers []int
	for _, q := range []int{(id + 1) % p, (id*id + 2) % p, 3 * id % p} {
		if q != id && !slices.Contains(peers, q) {
			peers = append(peers, q)
		}
	}
	return peers
}

// TestVectorCollectivesMatchUnpooledReference runs one script of reductions,
// all-reductions and exchanges through the reference and through the pooled
// collectives, in two identical observed worlds, and requires on every rank
// the same result bits, clock, message and byte counts — and in the world the
// same counted pool traffic, which the journal's "pool" event reports.
func TestVectorCollectivesMatchUnpooledReference(t *testing.T) {
	type impl struct {
		reduce    func(r *Rank, root int, op ReduceOp, data []float64) []float64
		allreduce func(r *Rank, op ReduceOp, data []float64) []float64
		exchange  func(r *Rank, peers []int, payload func(i int) []int) ([]int, [][]int)
	}
	type outcome struct {
		vals       []float64
		now        float64
		msgs, msgB int64
	}
	for _, p := range append(collectiveSizes(), 300) {
		senders := make([][]int, p)
		for id := 0; id < p; id++ {
			for _, q := range exchangePeers(id, p) {
				senders[q] = append(senders[q], id)
			}
		}
		ref := impl{refReduce,
			func(r *Rank, op ReduceOp, data []float64) []float64 { return refBcast(r, 0, refReduce(r, 0, op, data)) },
			refExchange(func(id int) []int { return senders[id] })}
		pooled := impl{(*Rank).Reduce, (*Rank).Allreduce, (*Rank).ExchangeInts}
		run := func(im impl) ([]outcome, int64, int64, int) {
			w := testWorld(t, p, 4)
			w.pool.counting = true
			out := make([]outcome, p)
			err := w.Run(func(r *Rank) error {
				o := &out[r.ID()]
				data := make([]float64, 1+p%5)
				peers := exchangePeers(r.ID(), p)
				for round := 0; round < 3; round++ {
					for i := range data {
						data[i] = math.Sqrt(float64(1 + i + 7*r.ID() + 31*round))
					}
					for _, op := range []ReduceOp{OpSum, OpMax, OpMin} {
						o.vals = append(o.vals, im.reduce(r, (round+int(op))%p, op, data)...)
						o.vals = append(o.vals, im.allreduce(r, op, data)...)
					}
					// Streams of different lengths, an empty one among them,
					// each a slice of its own: the exchange hands it over.
					srcs, recv := im.exchange(r, peers, func(i int) []int {
						var stream []int
						for j := 0; j < (r.ID()+peers[i]+round)%4; j++ {
							stream = append(stream, 1000*r.ID()+10*peers[i]+j)
						}
						return stream
					})
					for i, src := range srcs {
						o.vals = append(o.vals, float64(src), float64(len(recv[i])))
						for _, v := range recv[i] {
							o.vals = append(o.vals, float64(v))
						}
					}
					o.vals = append(o.vals, im.reduce(r, 0, OpSum, nil)...)
				}
				_, _, o.msgs, o.msgB = r.Clock().Counters()
				o.now = r.Wtime()
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			return out, w.pool.gets.Load(), w.pool.puts.Load(), len(w.pool.classes[poolClassOf(p)].free)
		}
		want, wantGets, wantPuts, _ := run(ref)
		got, gets, puts, free := run(pooled)
		// What the ranks gave back is in the shared level once they have
		// exited; the reference gives nothing back.
		if free == 0 {
			t.Errorf("p=%d: no census vector returned to the pool", p)
		}
		if gets != wantGets || puts != wantPuts {
			t.Errorf("p=%d: counted pool traffic %d gets, %d puts; reference %d, %d", p, gets, puts, wantGets, wantPuts)
		}
		for id := range want {
			g, w := got[id], want[id]
			if g.now != w.now || g.msgs != w.msgs || g.msgB != w.msgB {
				t.Errorf("p=%d rank %d: clock %v after %d messages, %d bytes; reference %v after %d, %d",
					p, id, g.now, g.msgs, g.msgB, w.now, w.msgs, w.msgB)
			}
			if len(g.vals) != len(w.vals) {
				t.Fatalf("p=%d rank %d: %d result values, reference %d", p, id, len(g.vals), len(w.vals))
			}
			for i := range w.vals {
				if math.Float64bits(g.vals[i]) != math.Float64bits(w.vals[i]) {
					t.Fatalf("p=%d rank %d: result value %d is %v, reference %v", p, id, i, g.vals[i], w.vals[i])
				}
			}
		}
	}
}

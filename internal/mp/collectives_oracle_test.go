package mp

import (
	"math"
	"testing"
)

// The vector collectives as they were before they recycled their vectors:
// a fresh accumulator per rank, sent on as a second copy, the children's
// payloads left to the GC, the root's broadcast result a third copy, and a
// census that made its indicator and dropped the sum. They are the oracle
// for Reduce, Allreduce and Census: same trees, tags, sizes and combination
// order, hence the same bits, virtual times and traffic counts.

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

// TestVectorCollectivesMatchUnpooledReference runs one script of reductions,
// all-reductions and censuses through the reference and through the pooled
// collectives, in two identical observed worlds, and requires on every rank
// the same result bits, clock, message and byte counts — and in the world the
// same counted pool traffic, which the journal's "pool" event reports.
func TestVectorCollectivesMatchUnpooledReference(t *testing.T) {
	type impl struct {
		reduce    func(r *Rank, root int, op ReduceOp, data []float64) []float64
		allreduce func(r *Rank, op ReduceOp, data []float64) []float64
		census    func(r *Rank, peers []int) int
	}
	ref := impl{refReduce,
		func(r *Rank, op ReduceOp, data []float64) []float64 { return refBcast(r, 0, refReduce(r, 0, op, data)) },
		refCensus}
	pooled := impl{(*Rank).Reduce, (*Rank).Allreduce, (*Rank).Census}
	type outcome struct {
		vals       []float64
		now        float64
		msgs, msgB int64
	}
	for _, p := range append(collectiveSizes(), 300) {
		run := func(im impl) ([]outcome, int64, int64, int) {
			w := testWorld(t, p, 4)
			w.pool.counting = true
			out := make([]outcome, p)
			err := w.Run(func(r *Rank) error {
				o := &out[r.ID()]
				data := make([]float64, 1+p%5)
				for round := 0; round < 3; round++ {
					for i := range data {
						data[i] = math.Sqrt(float64(1 + i + 7*r.ID() + 31*round))
					}
					for _, op := range []ReduceOp{OpSum, OpMax, OpMin} {
						o.vals = append(o.vals, im.reduce(r, (round+int(op))%p, op, data)...)
						o.vals = append(o.vals, im.allreduce(r, op, data)...)
					}
					// Each rank contacts its two right-hand neighbours.
					o.vals = append(o.vals, float64(im.census(r, []int{(r.ID() + 1) % p, (r.ID() + 2) % p})))
					o.vals = append(o.vals, im.reduce(r, 0, OpSum, nil)...)
				}
				_, _, o.msgs, o.msgB = r.Clock().Counters()
				o.now = r.Wtime()
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			return out, w.pool.gets.Load(), w.pool.puts.Load(), w.pool.classes[poolClassOf(p)].n
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

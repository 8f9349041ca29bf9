package mp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/vclock"
)

// The vector collectives as they were when they moved messages and before
// they recycled their vectors: a fresh accumulator per rank, handed to its
// parent, the children's payloads left to the GC, the root's broadcast
// result a second copy, and a census that made its indicator and dropped the
// sum. They are the oracle for Allreduce and ExchangeInts: same trees, tags,
// sizes and combination order, hence the same bits, virtual times and
// traffic counts. A non-nil trace records the clock at each fault check
// (see allreduceTrace); it changes nothing the oracle does.

func refBcast(r *Rank, root int, data []float64, tr *allreduceTrace) []float64 {
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
			tr.note(r)
			buf = Recv[float64](r, (rel-mask+root)%p, tag)
			tr.note(r)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			tr.note(r)
			Send(r, (rel+mask+root)%p, tag, buf)
		}
	}
	if rel == 0 {
		return append([]float64(nil), buf...)
	}
	return buf
}

func refReduce(r *Rank, root int, op ReduceOp, data []float64, tr *allreduceTrace) []float64 {
	p := r.Size()
	tag := r.collTag(kindReduce)
	acc := append([]float64(nil), data...)
	rel := (r.id - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			tr.note(r)
			Send(r, (rel-mask+root)%p, tag, acc)
			return nil
		}
		if rel+mask < p {
			tr.note(r)
			buf := Recv[float64](r, (rel+mask+root)%p, tag)
			tr.note(r)
			if len(buf) != len(acc) {
				panic(fmt.Sprintf("mp: reduce length mismatch %d vs %d", len(acc), len(buf)))
			}
			op.apply(acc, buf)
		}
	}
	return acc
}

// refAllreduce is the vector allreduce as the message trees made it.
func refAllreduce(r *Rank, op ReduceOp, data []float64, tr *allreduceTrace) []float64 {
	out := refBcast(r, 0, refReduce(r, 0, op, data, tr), tr)
	tr.done(r)
	return out
}

func refCensus(r *Rank, peers []int) int {
	ind := make([]float64, r.Size())
	for _, p := range peers {
		ind[p] = 1
	}
	return int(refBcast(r, 0, refReduce(r, 0, OpSum, ind, nil), nil)[r.id] + 0.5)
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
			Send(r, p, exchangeTag, payload(i))
		}
		recv := make([][]int, len(srcs))
		for i, src := range srcs {
			recv[i] = Recv[int](r, src, exchangeTag)
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

// TestVectorCollectivesMatchUnpooledReference runs one script of
// all-reductions and exchanges through the reference and through the
// collectives, in two identical worlds, and requires on every rank the same
// result bits, clock, message and byte counts — and in the world the same
// counted payload traffic, which the journal's "pool" event reports.
func TestVectorCollectivesMatchUnpooledReference(t *testing.T) {
	type impl struct {
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
		ref := impl{func(r *Rank, op ReduceOp, data []float64) []float64 { return refAllreduce(r, op, data, nil) },
			refExchange(func(id int) []int { return senders[id] })}
		collectives := impl{(*Rank).Allreduce, (*Rank).ExchangeInts}
		run := func(im impl) ([]outcome, int64, int64) {
			w := testWorld(t, p, 4)
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
				}
				_, _, o.msgs, o.msgB = r.Clock().Counters()
				o.now = r.Wtime()
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			return out, w.gets.Load(), w.puts.Load()
		}
		want, wantGets, wantPuts := run(ref)
		got, gets, puts := run(collectives)
		if gets != wantGets || puts != wantPuts {
			t.Errorf("p=%d: counted payload traffic %d gets, %d puts; reference %d, %d", p, gets, puts, wantGets, wantPuts)
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

// The scalar allreduce as it was when it moved messages: the binomial Reduce
// to rank 0 and Bcast from it, each message one one-element payload. It is the oracle for AllreduceScalar,
// which must leave every rank with the same bits, clock, per-phase charges,
// message and payload counts, death and stranded messages. A non-nil trace
// records each rank's clock at the fault checks of one call and at its
// return; it changes nothing the oracle does.

func refSendScalar(r *Rank, dst, tag int, v float64, tr *allreduceTrace) {
	tr.note(r)
	Send(r, dst, tag, []float64{v})
}

func refRecvScalar(r *Rank, src, tag int, tr *allreduceTrace) float64 {
	tr.note(r)
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.clk.AdvanceTo(m.arriveAt)
	tr.note(r)
	r.checkFault()
	r.puts++
	return unpack[float64](m)[0]
}

// refApplyScalar folds v into acc (acc op= v) with apply, the primitive
// both forms of the allreduce fold with. The oracle pins the fold order; which
// of two NaNs a sum keeps is the primitive's, and Go leaves it unspecified.
func refApplyScalar(op ReduceOp, acc, v float64) float64 {
	a := [1]float64{acc}
	op.apply(a[:], []float64{v})
	return a[0]
}

func refAllreduceScalar(r *Rank, op ReduceOp, x float64, tr *allreduceTrace) float64 {
	p := r.Size()
	acc := x
	tag := r.collTag(kindReduce)
	if p > 1 {
		rel := r.id
		for mask := 1; mask < p; mask <<= 1 {
			if rel&mask == 0 {
				if rel+mask < p {
					acc = refApplyScalar(op, acc, refRecvScalar(r, rel+mask, tag, tr))
				}
			} else {
				refSendScalar(r, rel-mask, tag, acc, tr)
				break
			}
		}
	}
	tag = r.collTag(kindBcast)
	if p > 1 {
		rel := r.id
		mask := 1
		for mask < p {
			if rel&mask != 0 {
				acc = refRecvScalar(r, rel-mask, tag, tr)
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for ; mask > 0; mask >>= 1 {
			if rel+mask < p {
				refSendScalar(r, rel+mask, tag, acc, tr)
			}
		}
	}
	tr.done(r)
	return acc
}

// allreduceTrace records, for call number call of every rank, the rank's
// clock at each fault check and at return: every clock at which a node crash
// can stop the rank inside that call. Each rank writes only its own entries.
type allreduceTrace struct {
	call   int
	calls  []int
	clocks [][]float64
}

func newAllreduceTrace(p, call int) *allreduceTrace {
	return &allreduceTrace{call: call, calls: make([]int, p), clocks: make([][]float64, p)}
}

func (tr *allreduceTrace) note(r *Rank) {
	if tr != nil && tr.calls[r.id] == tr.call {
		tr.clocks[r.id] = append(tr.clocks[r.id], r.Wtime())
	}
}

func (tr *allreduceTrace) done(r *Rank) {
	if tr != nil {
		tr.note(r)
		tr.calls[r.id]++
	}
}

// allreduceImpl is an allreduce under comparison.
type allreduceImpl func(r *Rank, op ReduceOp, data []float64) []float64

// allreduceForm is one form of the allreduce with its message-tree oracle and
// the payload length of each call of a script.
type allreduceForm struct {
	impl   allreduceImpl
	tree   func(tr *allreduceTrace) allreduceImpl
	length func(call int) int
}

var (
	scalarForm = allreduceForm{
		impl: func(r *Rank, op ReduceOp, data []float64) []float64 {
			return []float64{r.AllreduceScalar(op, data[0])}
		},
		tree: func(tr *allreduceTrace) allreduceImpl {
			return func(r *Rank, op ReduceOp, data []float64) []float64 {
				return []float64{refAllreduceScalar(r, op, data[0], tr)}
			}
		},
		length: func(int) int { return 1 },
	}
	// vectorForm's calls carry 0 to 6 elements, the empty payload first.
	vectorForm = allreduceForm{
		impl: (*Rank).Allreduce,
		tree: func(tr *allreduceTrace) allreduceImpl {
			return func(r *Rank, op ReduceOp, data []float64) []float64 { return refAllreduce(r, op, data, tr) }
		},
		length: func(call int) int { return call * 5 % 7 },
	}
)

// allreduceBody is the SPMD body of a comparison run: it calls allreduce and
// logs every result it gets.
type allreduceBody func(r *Rank, allreduce allreduceImpl, log *[]float64) error

// allreduceRank is what one rank shows after a run: the result of every call
// it completed, whether it unwound and with which panic, its clock, its
// communication time per phase and its message counts.
type allreduceRank struct {
	vals       []float64
	unwound    bool
	panicked   string
	now        float64
	comm       []float64
	msgs, msgB int64
}

// allreduceOutcome is what a whole run shows: its ranks, Run's error, the
// recorded failure, the counted payload traffic, the journal and metrics, and
// the messages left pending (those Reform revokes if the world is poisoned,
// every one otherwise).
type allreduceOutcome struct {
	ranks            []allreduceRank
	err              string
	failure          Failure
	down             bool
	gets, puts       int64
	journal, metrics string
	revoked          int
}

// runAllreduce runs body over allreduce on a fresh observed world from mk.
func runAllreduce(t *testing.T, mk func() *World, allreduce allreduceImpl, body allreduceBody) allreduceOutcome {
	t.Helper()
	w := mk()
	run := obs.NewRun()
	w.Observe(run)
	out := allreduceOutcome{ranks: make([]allreduceRank, w.Size())}
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		o := &out.ranks[r.ID()]
		defer func() {
			if rec := recover(); rec != nil {
				o.panicked = fmt.Sprint(rec)
				panic(rec)
			}
		}()
		o.unwound = true
		err := body(r, allreduce, &o.vals)
		o.unwound = false
		return err
	})
	w.FlushObs()
	if err != nil {
		out.err = err.Error()
	}
	for i, clk := range w.Clocks() {
		o := &out.ranks[i]
		o.now = clk.Now()
		for _, ph := range vclock.Phases {
			o.comm = append(o.comm, clk.Snapshot().Comm[ph])
		}
		_, _, o.msgs, o.msgB = clk.Counters()
	}
	out.failure, out.down = w.Failure()
	out.gets, out.puts = w.gets.Load(), w.puts.Load()
	var j, m strings.Builder
	if err := run.WriteJournal(&j); err != nil {
		t.Fatal(err)
	}
	if err := run.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	out.journal, out.metrics = j.String(), m.String()
	if out.down {
		out.revoked = reformAll(t, w).Revoked
	} else {
		out.revoked = pending(w)
	}
	return out
}

// diffAllreduce reports every way got differs from the oracle's want.
func diffAllreduce(t *testing.T, name string, got, want allreduceOutcome) {
	t.Helper()
	if got.err != want.err || got.failure != want.failure || got.down != want.down {
		t.Errorf("%s: Run returned %q with failure %+v (%v); tree %q, %+v (%v)",
			name, got.err, got.failure, got.down, want.err, want.failure, want.down)
	}
	if got.gets != want.gets || got.puts != want.puts || got.revoked != want.revoked {
		t.Errorf("%s: payload traffic %d gets, %d puts, %d messages pending; tree %d, %d, %d",
			name, got.gets, got.puts, got.revoked, want.gets, want.puts, want.revoked)
	}
	if got.journal != want.journal || got.metrics != want.metrics {
		t.Errorf("%s: journal or metrics differ from the tree's:\n%s\n%s\ntree:\n%s\n%s",
			name, got.metrics, lastLines(got.journal, 3), want.metrics, lastLines(want.journal, 3))
	}
	for id := range want.ranks {
		g, w := got.ranks[id], want.ranks[id]
		if g.unwound != w.unwound || g.panicked != w.panicked || g.now != w.now || g.msgs != w.msgs || g.msgB != w.msgB || !slices.Equal(g.comm, w.comm) {
			t.Errorf("%s rank %d: unwound %v (%q) at %v, comm %v, %d messages, %d bytes; tree %v (%q) at %v, %v, %d, %d",
				name, id, g.unwound, g.panicked, g.now, g.comm, g.msgs, g.msgB, w.unwound, w.panicked, w.now, w.comm, w.msgs, w.msgB)
			return
		}
		if len(g.vals) != len(w.vals) {
			t.Errorf("%s rank %d: %d results, tree %d", name, id, len(g.vals), len(w.vals))
			return
		}
		for i := range w.vals {
			if math.Float64bits(g.vals[i]) != math.Float64bits(w.vals[i]) {
				t.Errorf("%s rank %d: result %d is %v (%#x), tree %v (%#x)",
					name, id, i, g.vals[i], math.Float64bits(g.vals[i]), w.vals[i], math.Float64bits(w.vals[i]))
				return
			}
		}
	}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// scalarWorld builds a world of p ranks, perNode to a node, on the 10 GbE
// model, with node n in placement group n%groups.
func scalarWorld(t *testing.T, p, perNode, groups int) *World {
	t.Helper()
	nodeOf := make([]int, p)
	for i := range nodeOf {
		nodeOf[i] = i / perNode
	}
	groupOf := make([]int, (p+perNode-1)/perNode)
	for n := range groupOf {
		groupOf[n] = n % groups
	}
	topo, err := NewTopology(nodeOf, groupOf)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.TenGigE, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// allreduceScript is the comparison body: calls rounds of Sum, Max and Min,
// each rank entering every call after its own seeded compute charge, with
// payloads of the form's lengths drawn from values whose combination depends
// on the fold order (NaNs of two signs and payloads, signed zeros,
// infinities, extremes), and each round charged to another phase.
func allreduceScript(form allreduceForm, calls int) allreduceBody {
	specials := []float64{math.NaN(), math.Float64frombits(0xfff8000000000001), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), 1, -2.5, 0.1, 1e308, 5e-324}
	ops := []ReduceOp{OpSum, OpMax, OpMin}
	return func(r *Rank, allreduce allreduceImpl, log *[]float64) error {
		rng := rand.New(rand.NewSource(int64(r.ID())))
		for call := 0; call < calls; call++ {
			r.Clock().SetPhase(vclock.Phases[call/len(ops)%len(vclock.Phases)])
			r.ChargeCompute(float64(rng.Intn(1<<17)), 0)
			data := make([]float64, form.length(call))
			for i := range data {
				data[i] = specials[rng.Intn(len(specials))]
			}
			*log = append(*log, allreduce(r, ops[call%len(ops)], data)...)
		}
		return nil
	}
}

// TestScalarAllreduceMatchesTree and TestVectorAllreduceMatchesTree run one
// script through the message trees and through the allreduce, in identical
// observed worlds, and require the same outcome rank by rank: result bits,
// clock, per-phase communication, message counts; and in the world the
// counted payload traffic, journal and metrics. The worlds span one node or
// many, one placement group or three, and one has degraded links on every
// node, each window opening inside the first call: halfway between the entry
// and the return of the node's first rank, as the tree times them.
func TestScalarAllreduceMatchesTree(t *testing.T) {
	testAllreduceMatchesTree(t, scalarForm, []int{1, 2, 3, 5, 8, 27, 64, 129})
}

func TestVectorAllreduceMatchesTree(t *testing.T) {
	testAllreduceMatchesTree(t, vectorForm, []int{1, 2, 3, 5, 8, 27, 64})
}

func testAllreduceMatchesTree(t *testing.T, form allreduceForm, sizes []int) {
	const calls = 12
	body := allreduceScript(form, calls)
	for _, p := range sizes {
		tr := newAllreduceTrace(p, 0)
		runAllreduce(t, func() *World { return scalarWorld(t, p, 4, 1) }, form.tree(tr), body)
		for _, tc := range []struct {
			name string
			mk   func() *World
		}{
			{"one node", func() *World { return scalarWorld(t, p, p, 1) }},
			{"nodes", func() *World { return scalarWorld(t, p, 4, 1) }},
			{"groups", func() *World { return scalarWorld(t, p, 3, 3) }},
			{"degraded", func() *World {
				w := scalarWorld(t, p, 4, 1)
				for n := 0; n < w.topo.NNodes(); n++ {
					ck := tr.clocks[4*n]
					from := (ck[0] + ck[len(ck)-1]) / 2
					if err := w.ScheduleDegrade(n, from, from+1e-3*float64(1+n%3), 1.5+float64(n%4)); err != nil {
						t.Fatal(err)
					}
				}
				return w
			}},
		} {
			want := runAllreduce(t, tc.mk, form.tree(nil), body)
			got := runAllreduce(t, tc.mk, form.impl, body)
			diffAllreduce(t, fmt.Sprintf("P=%d %s", p, tc.name), got, want)
		}
	}
}

// TestScalarAllreduceFaultsMatchTree and TestVectorAllreduceFaultsMatchTree
// kill one node at every virtual time where it can stop a rank inside one
// call of the tree — each of its ranks' clocks at a fault check of that
// call, and at the call's return — so the crash lands before a rank's entry,
// after a child's message has arrived and before the send up, on either side
// of the broadcast receive, between two broadcast sends, and after the call,
// where the next one trips. Every rank's outcome and clock, the failure
// record, Run's error and the messages left pending must be the tree's.
func TestScalarAllreduceFaultsMatchTree(t *testing.T) {
	testAllreduceFaultsMatchTree(t, scalarForm)
}

func TestVectorAllreduceFaultsMatchTree(t *testing.T) {
	testAllreduceFaultsMatchTree(t, vectorForm)
}

func testAllreduceFaultsMatchTree(t *testing.T, form allreduceForm) {
	const calls, traced = 6, 2
	body := allreduceScript(form, calls)
	for _, tc := range []struct{ p, perNode, node int }{
		{8, 2, 1},
		{27, 4, 1},
		{27, 4, 0}, // the root's node
		{64, 16, 3},
	} {
		mk := func(at float64) func() *World {
			return func() *World {
				w := scalarWorld(t, tc.p, tc.perNode, 2)
				if at >= 0 {
					if err := w.ScheduleNodeCrash(tc.node, at); err != nil {
						t.Fatal(err)
					}
				}
				return w
			}
		}
		tr := newAllreduceTrace(tc.p, traced)
		runAllreduce(t, mk(-1), form.tree(tr), body)
		var times []float64
		for id := tc.node * tc.perNode; id < min(tc.p, (tc.node+1)*tc.perNode); id++ {
			times = append(times, tr.clocks[id]...)
		}
		slices.Sort(times)
		for _, at := range slices.Compact(times) {
			want := runAllreduce(t, mk(at), form.tree(nil), body)
			if !want.down {
				t.Fatalf("P=%d: node %d crash at %v never reached", tc.p, tc.node, at)
			}
			got := runAllreduce(t, mk(at), form.impl, body)
			diffAllreduce(t, fmt.Sprintf("P=%d node %d crash at %v", tc.p, tc.node, at), got, want)
		}
	}
}

// TestScalarAllreduceExitsMatchTree and TestVectorAllreduceExitsMatchTree let
// one rank leave the script around one call — returning an error before it,
// or returning right after it while the others go on to the next — and
// require every rank's outcome and clock, and the messages left pending, to
// be the tree's. Each exit is made twice: at once, and once every other rank
// is parked in the allreduce, so that the exit itself completes the
// collective.
func TestScalarAllreduceExitsMatchTree(t *testing.T) {
	testAllreduceExitsMatchTree(t, scalarForm)
}

func TestVectorAllreduceExitsMatchTree(t *testing.T) {
	testAllreduceExitsMatchTree(t, vectorForm)
}

func testAllreduceExitsMatchTree(t *testing.T, form allreduceForm) {
	const calls, at = 6, 3
	errLeft := errors.New("left the script")
	for _, tc := range []struct {
		p, rank int
		after   bool
	}{
		{2, 1, false}, {2, 0, true},
		{8, 5, false}, {8, 6, true}, {8, 0, false},
		{27, 12, false}, {27, 13, true},
	} {
		// The leaver runs the first calls of the same script: its inputs
		// and charges up to its exit are the script's.
		leaver, leaveErr := allreduceScript(form, at), errLeft
		if tc.after {
			leaver, leaveErr = allreduceScript(form, at+1), nil
		}
		body := func(parked bool) allreduceBody {
			return func(r *Rank, allreduce allreduceImpl, log *[]float64) error {
				if r.ID() != tc.rank {
					return allreduceScript(form, calls)(r, allreduce, log)
				}
				if err := leaver(r, allreduce, log); err != nil {
					return err
				}
				if parked && !waitFor(func() bool {
					s := &r.world.allreduce
					s.mu.Lock()
					defer s.mu.Unlock()
					return s.in == r.Size()-1
				}) {
					return errors.New("the other ranks never parked")
				}
				return leaveErr
			}
		}
		mk := func() *World { return scalarWorld(t, tc.p, 4, 1) }
		want := runAllreduce(t, mk, form.tree(nil), body(false))
		for _, parked := range []bool{false, true} {
			got := runAllreduce(t, mk, form.impl, body(parked))
			diffAllreduce(t, fmt.Sprintf("P=%d rank %d leaves at call %d (after %v, others parked %v)", tc.p, tc.rank, at, tc.after, parked), got, want)
		}
	}
}

// TestVectorAllreduceLengthMismatch gives one rank a payload one element
// longer than the others'. The rank that is sent a payload of another length
// than its own — the mismatched rank's tree parent, or, for a parent, the
// mismatched rank itself when its first child's payload arrives — panics
// with the tree fold's message, and every other rank dies or ends as it did
// in the tree, with the same clocks, counts and pending messages.
func TestVectorAllreduceLengthMismatch(t *testing.T) {
	for _, tc := range []struct{ p, rank, receiver int }{
		{2, 1, 0},
		{8, 5, 4},
		{8, 4, 4},
		{8, 0, 0},
		{27, 16, 16},
		{27, 26, 24},
	} {
		body := func(r *Rank, allreduce allreduceImpl, log *[]float64) error {
			data := []float64{float64(r.ID()), 1}
			if r.ID() == tc.rank {
				data = append(data, 2)
			}
			*log = append(*log, allreduce(r, OpSum, data)...)
			return nil
		}
		mk := func() *World { return scalarWorld(t, tc.p, 4, 1) }
		want := runAllreduce(t, mk, vectorForm.tree(nil), body)
		got := runAllreduce(t, mk, vectorForm.impl, body)
		name := fmt.Sprintf("P=%d rank %d sends 3 elements", tc.p, tc.rank)
		diffAllreduce(t, name, got, want)
		for id, o := range got.ranks {
			if !o.unwound {
				t.Errorf("%s: rank %d completed", name, id)
			}
			if (id == tc.receiver) != strings.HasPrefix(o.panicked, "mp: reduce length mismatch") {
				t.Errorf("%s: rank %d panicked with %q; rank %d should report the mismatch", name, id, o.panicked, tc.receiver)
			}
		}
	}
}

// TestScalarAllreduceZeroAlloc holds AllreduceScalar at zero allocations per
// call across a 27-rank world: the shared state and each rank's wake channel
// are made once, by Run.
func TestScalarAllreduceZeroAlloc(t *testing.T) {
	const p, runs = 27, 200
	w := testWorld(t, p, 8)
	var allocs float64
	err := w.Run(func(r *Rank) error {
		call := func() { r.AllreduceScalar(OpSum, 1) }
		call()
		if r.ID() == 0 {
			allocs = testing.AllocsPerRun(runs, call)
			return nil
		}
		for i := 0; i <= runs; i++ {
			call()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("AllreduceScalar on %d ranks: %v allocs per call, want 0", p, allocs)
	}
}

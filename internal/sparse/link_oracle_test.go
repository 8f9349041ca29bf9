package sparse

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/vclock"
)

// refExchange and refExportAdd are Importer.Exchange and ExportAdd as they
// ran before the importer had links: every payload a gathered copy sent
// through the destination's mailbox and scattered out of the receiver's. A
// non-nil trace records the clock at each fault check of the traced round:
// a send's, and a receive's before and after it takes its message.
func refExchange(im *Importer, x []float64, tr *haloTrace) {
	im.r.Obs().CountHalo(im.sendB)
	for i, p := range im.sendPeers {
		tr.note(im.r)
		mp.Send(im.r, p, haloTag, gather(x, im.sends[i]))
	}
	for i, p := range im.recvPeers {
		tr.note(im.r)
		recvScatter(im.r, p, haloTag, x, im.recvs[i])
		tr.note(im.r)
	}
}

func refExportAdd(im *Importer, x []float64, tr *haloTrace) {
	im.r.Obs().CountHalo(im.recvB)
	for i, p := range im.recvPeers {
		tr.note(im.r)
		mp.Send(im.r, p, haloTag, gather(x, im.recvs[i]))
		for _, l := range im.recvs[i] {
			x[l] = 0
		}
	}
	for i, p := range im.sendPeers {
		tr.note(im.r)
		im.r.RecvF64AddScatter(p, haloTag, x, im.sends[i])
		tr.note(im.r)
	}
}

// haloTag is the tag haloScript's importer exchanges under: the importer's
// tag plus one.
const haloTag = 41

func gather(x []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for j, l := range idx {
		out[j] = x[l]
	}
	return out
}

// recvScatter is the mailbox receive that scatters its payload into
// x[pos[j]] and returns the buffer to the pool. It adds the payload into −0,
// the additive identity, which leaves every element's bits as they came.
func recvScatter(r *mp.Rank, src, tag int, x []float64, pos []int) {
	stage, ident := make([]float64, len(pos)), make([]int, len(pos))
	for j := range stage {
		stage[j], ident[j] = math.Copysign(0, -1), j
	}
	r.RecvF64AddScatter(src, tag, stage, ident)
	for j, l := range pos {
		x[l] = stage[j]
	}
}

// haloTrace records every rank's clock at the fault checks of round `round`
// of the script and at its end: every clock at which a node crash can stop
// the rank inside that round's exchanges. Each rank writes only its own
// entries.
type haloTrace struct {
	round  int
	rounds []int
	clocks [][]float64
}

func newHaloTrace(p, round int) *haloTrace {
	return &haloTrace{round: round, rounds: make([]int, p), clocks: make([][]float64, p)}
}

func (tr *haloTrace) note(r *mp.Rank) {
	if tr != nil && tr.rounds[r.ID()] == tr.round {
		tr.clocks[r.ID()] = append(tr.clocks[r.ID()], r.Wtime())
	}
}

func (tr *haloTrace) next(r *mp.Rank) {
	if tr != nil {
		tr.note(r)
		tr.rounds[r.ID()]++
	}
}

// haloImpl is an exchange under comparison.
type haloImpl struct {
	exchange, exportAdd func(im *Importer, x []float64)
}

func refHalo(tr *haloTrace) haloImpl {
	return haloImpl{
		func(im *Importer, x []float64) { refExchange(im, x, tr) },
		func(im *Importer, x []float64) { refExportAdd(im, x, tr) },
	}
}

var linkHalo = haloImpl{(*Importer).Exchange, (*Importer).ExportAdd}

// haloGrid lays k³ ranks over a (k·m)³ grid of vertices, each owning an m³
// block. Under the full stencil a rank ghosts every vertex next to one of
// its own, so every neighbour relation runs both ways; under the upwind one
// it ghosts only those up the grid, so each rank sends down and receives
// from up, and a rank with nothing below it runs ahead.
type haloGrid struct {
	k, m   int
	upwind bool
}

func (hg haloGrid) n() int { return hg.k * hg.m }

func (hg haloGrid) owner(g int) int {
	n := hg.n()
	x, y, z := g%n, g/n%n, g/(n*n)
	return (z/hg.m*hg.k+y/hg.m)*hg.k + x/hg.m
}

// layout returns rank's owned ids and its ghost ids, descending, so that
// ghost positions do not follow owner order.
func (hg haloGrid) layout(rank int) (owned, ghosts []int) {
	n, m, k := hg.n(), hg.m, hg.k
	bx, by, bz := rank%k*m, rank/k%k*m, rank/(k*k)*m
	lo := -1
	if hg.upwind {
		lo = 0
	}
	seen := map[int]bool{}
	for z := bz; z < bz+m; z++ {
		for y := by; y < by+m; y++ {
			for x := bx; x < bx+m; x++ {
				owned = append(owned, (z*n+y)*n+x)
				for dz := lo; dz <= 1; dz++ {
					for dy := lo; dy <= 1; dy++ {
						for dx := lo; dx <= 1; dx++ {
							gx, gy, gz := x+dx, y+dy, z+dz
							if gx < 0 || gy < 0 || gz < 0 || gx >= n || gy >= n || gz >= n {
								continue
							}
							if g := (gz*n+gy)*n + gx; hg.owner(g) != rank && !seen[g] {
								seen[g] = true
								ghosts = append(ghosts, g)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(ghosts)
	slices.Reverse(ghosts)
	return owned, ghosts
}

// haloValues are the values the script exchanges: signed zeros, infinities,
// extremes and subnormals among ordinary numbers.
var haloValues = []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1e308, -5e-324,
	math.SmallestNonzeroFloat64, 1, -2.5, 0.1, 3}

// haloScript is the comparison body: rounds of an Exchange and an ExportAdd
// on one importer, each round charged to another phase after its own compute
// charge, logging the vector after each. leaver, if not negative, returns
// an error instead of entering round 2.
func haloScript(hg haloGrid, rounds, leaver int) func(r *mp.Rank, im haloImpl, tr *haloTrace, log *[]float64) error {
	return func(r *mp.Rank, impl haloImpl, tr *haloTrace, log *[]float64) error {
		owned, ghosts := hg.layout(r.ID())
		im, err := NewImporter(r, NewRowMap(owned), ghosts, hg.owner, haloTag-1)
		if err != nil {
			return err
		}
		x := make([]float64, len(owned)+len(ghosts))
		for round := 0; round < rounds; round++ {
			if r.ID() == leaver && round == 2 {
				return errors.New("left the script")
			}
			r.Clock().SetPhase(vclock.Phases[round%len(vclock.Phases)])
			r.ChargeCompute(float64(1+(r.ID()*7919+round*104729)%(1<<16)), 0)
			for i := range x {
				x[i] = haloValues[(i+3*r.ID()+round)%len(haloValues)] * float64(1+i%3)
			}
			impl.exchange(im, x)
			*log = append(*log, r.Wtime())
			*log = append(*log, x...)
			for i := len(owned); i < len(x); i++ {
				x[i] = float64(i + round)
			}
			impl.exportAdd(im, x)
			*log = append(*log, r.Wtime())
			*log = append(*log, x...)
			tr.next(r)
		}
		return nil
	}
}

// haloRank is what one rank shows after a run: its log, whether it unwound,
// its clock, communication per phase and message counts.
type haloRank struct {
	vals       []float64
	unwound    bool
	now        float64
	comm       []float64
	msgs, msgB int64
}

// haloOutcome is what a whole run shows: its ranks, Run's error, the
// recorded failure, the journal (whose pool event counts the payloads drawn
// and returned) and metrics (message, halo and mailbox-residency counts),
// and the messages left pending — revoked by Shrink if the world is
// poisoned, by Grow otherwise.
type haloOutcome struct {
	ranks            []haloRank
	err              string
	failure          mp.Failure
	down             bool
	journal, metrics string
	revoked          int
}

func runHalo(t *testing.T, w *mp.World, impl haloImpl, tr *haloTrace,
	body func(r *mp.Rank, im haloImpl, tr *haloTrace, log *[]float64) error) haloOutcome {
	t.Helper()
	run := obs.NewRun()
	w.Observe(run)
	out := haloOutcome{ranks: make([]haloRank, w.Size())}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *mp.Rank) error {
			o := &out.ranks[r.ID()]
			o.unwound = true
			err := body(r, impl, tr, &o.vals)
			o.unwound = false
			return err
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("world deadlocked: no result within 60s")
	}
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
	var j, m strings.Builder
	if err := run.WriteJournal(&j); err != nil {
		t.Fatal(err)
	}
	if err := run.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	out.journal, out.metrics = j.String(), m.String()
	if out.down {
		sr, err := w.ShrinkNodes(nil)
		if err != nil {
			t.Fatal(err)
		}
		out.revoked = sr.Revoked
	} else {
		gr, err := w.Grow([]int{1}, []int{0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		out.revoked = gr.Revoked
	}
	return out
}

// diffHalo reports every way got differs from the reference's want.
func diffHalo(t *testing.T, name string, got, want haloOutcome) {
	t.Helper()
	if got.err != want.err || got.failure != want.failure || got.down != want.down || got.revoked != want.revoked {
		t.Errorf("%s: Run returned %q with failure %+v (%v), %d pending; mailbox %q, %+v (%v), %d",
			name, got.err, got.failure, got.down, got.revoked, want.err, want.failure, want.down, want.revoked)
	}
	if got.journal != want.journal || got.metrics != want.metrics {
		t.Errorf("%s: journal or metrics differ from the mailbox's:\n%s\nmailbox:\n%s", name, got.metrics, want.metrics)
	}
	for id := range want.ranks {
		g, w := got.ranks[id], want.ranks[id]
		if g.unwound != w.unwound || g.now != w.now || g.msgs != w.msgs || g.msgB != w.msgB || !slices.Equal(g.comm, w.comm) {
			t.Errorf("%s rank %d: unwound %v at %v, comm %v, %d messages, %d bytes; mailbox %v at %v, %v, %d, %d",
				name, id, g.unwound, g.now, g.comm, g.msgs, g.msgB, w.unwound, w.now, w.comm, w.msgs, w.msgB)
			return
		}
		if len(g.vals) != len(w.vals) {
			t.Errorf("%s rank %d: %d logged values, mailbox %d", name, id, len(g.vals), len(w.vals))
			return
		}
		for i := range w.vals {
			if math.Float64bits(g.vals[i]) != math.Float64bits(w.vals[i]) {
				t.Errorf("%s rank %d: logged value %d is %v, mailbox %v", name, id, i, g.vals[i], w.vals[i])
				return
			}
		}
	}
}

// haloWorld builds a world of p ranks, perNode to a node, on the 10 GbE
// model, with node n in placement group n%2.
func haloWorld(t *testing.T, p, perNode int) *mp.World {
	t.Helper()
	nodeOf := make([]int, p)
	for i := range nodeOf {
		nodeOf[i] = i / perNode
	}
	groupOf := make([]int, (p+perNode-1)/perNode)
	for n := range groupOf {
		groupOf[n] = n % 2
	}
	topo, err := mp.NewTopology(nodeOf, groupOf)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.TenGigE, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestImporterLinksMatchMailbox runs one script of exchanges and exports
// through the importer's links and through the mailbox reference, in
// identical observed worlds, for P = 1 to 1000 under both stencils, and
// requires the same outcome rank by rank — value bits and clocks after every
// exchange, final clock, per-phase communication, message counts — and in
// the world the same journal (pool traffic), metrics (message and halo
// counts, mailbox residency) and pending messages. One world has degraded
// links on every node, each window opening inside round 1 on the node's
// first rank; in another a rank leaves before round 2, so that its
// neighbours unwind and their messages to it stay pending.
func TestImporterLinksMatchMailbox(t *testing.T) {
	const rounds, perNode = 4, 8
	for _, k := range []int{1, 2, 3, 4, 5, 10} {
		p := k * k * k
		for _, upwind := range []bool{false, true} {
			hg := haloGrid{k: k, m: 2, upwind: upwind}
			body := haloScript(hg, rounds, -1)
			tr := newHaloTrace(p, 1)
			runHalo(t, haloWorld(t, p, perNode), refHalo(tr), tr, body)
			for _, tc := range []struct {
				name string
				mk   func() *mp.World
				body func(r *mp.Rank, im haloImpl, tr *haloTrace, log *[]float64) error
			}{
				{"clean", func() *mp.World { return haloWorld(t, p, perNode) }, body},
				{"degraded", func() *mp.World {
					w := haloWorld(t, p, perNode)
					for n := 0; n < w.Topology().NNodes(); n++ {
						ck := tr.clocks[perNode*n]
						from := (ck[0] + ck[len(ck)-1]) / 2
						if err := w.ScheduleDegrade(n, from, from+1e-4*float64(1+n%3), 1.5+float64(n%4)); err != nil {
							t.Fatal(err)
						}
					}
					return w
				}, body},
				{"leaver", func() *mp.World { return haloWorld(t, p, perNode) }, haloScript(hg, rounds, p/2)},
			} {
				name := fmt.Sprintf("P=%d upwind=%v %s", p, upwind, tc.name)
				want := runHalo(t, tc.mk(), refHalo(nil), nil, tc.body)
				got := runHalo(t, tc.mk(), linkHalo, nil, tc.body)
				diffHalo(t, name, got, want)
				if p > 1 && tc.name == "leaver" && want.revoked == 0 {
					t.Errorf("%s: nothing was left pending to the leaver", name)
				}
			}
		}
	}
}

// TestImporterLinkFaultsMatchMailbox kills one node at every virtual time
// where it can stop a rank inside round 1's exchange and export — each of
// its ranks' clocks at a send, on either side of a receive, and at the
// round's end, where the next round trips — and requires every rank's
// outcome and clock, the failure record, Run's error and the messages Shrink
// revokes to be the mailbox reference's.
func TestImporterLinkFaultsMatchMailbox(t *testing.T) {
	const rounds = 3
	for _, tc := range []struct {
		k, perNode, node int
		upwind           bool
	}{
		{2, 2, 1, false},
		{3, 4, 2, false},
		{4, 8, 3, true},
	} {
		p := tc.k * tc.k * tc.k
		body := haloScript(haloGrid{k: tc.k, m: 2, upwind: tc.upwind}, rounds, -1)
		mk := func(at float64) *mp.World {
			w := haloWorld(t, p, tc.perNode)
			if at >= 0 {
				if err := w.ScheduleNodeCrash(tc.node, at); err != nil {
					t.Fatal(err)
				}
			}
			return w
		}
		tr := newHaloTrace(p, 1)
		runHalo(t, mk(-1), refHalo(tr), tr, body)
		var times []float64
		for id := tc.node * tc.perNode; id < min(p, (tc.node+1)*tc.perNode); id++ {
			times = append(times, tr.clocks[id]...)
		}
		slices.Sort(times)
		for _, at := range slices.Compact(times) {
			want := runHalo(t, mk(at), refHalo(nil), nil, body)
			if !want.down {
				t.Fatalf("P=%d: node %d crash at %v never reached", p, tc.node, at)
			}
			got := runHalo(t, mk(at), linkHalo, nil, body)
			diffHalo(t, fmt.Sprintf("P=%d upwind=%v node %d crash at %v", p, tc.upwind, tc.node, at), got, want)
		}
	}
}

package sparse_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"heterohpc/internal/fem"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// refillRank is what one rank shows after a run: its clock after every build
// and refill, whether it unwound, its final clock and its message counts.
type refillRank struct {
	log        []float64
	unwound    bool
	now        float64
	msgs, msgB int64
}

// refillOutcome is what a whole run shows: its ranks, Run's error, the
// recorded failure, the journal and the messages Reform revokes.
type refillOutcome struct {
	ranks   []refillRank
	err     string
	failure mp.Failure
	down    bool
	journal string
	revoked int
}

// runRefill builds rd's two operators through the path newPath makes, in a
// fresh observed world of ow's ranks, perNode to a node, whose node 1 crashes
// at crashAt (never if negative), and refills each twice. A non-nil trace
// records each rank's clock at every fault check of the traced refill — the
// system operator's first, through the reference — and at its end.
func runRefill(t *testing.T, ow oracleWorld, perNode int, crashAt float64, newPath func() streamPath, trace [][]float64) refillOutcome {
	t.Helper()
	topo, err := mp.BlockTopology(ow.nranks, perNode)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.TenGigE, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 3e9})
	if err != nil {
		t.Fatal(err)
	}
	if crashAt >= 0 {
		if err := w.ScheduleNodeCrash(1, crashAt); err != nil {
			t.Fatal(err)
		}
	}
	run := obs.NewRun()
	w.Observe(run)
	out := refillOutcome{ranks: make([]refillRank, ow.nranks)}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *mp.Rank) error {
			o := &out.ranks[r.ID()]
			o.unwound = true
			s, err := ow.space(r)
			if err != nil {
				return err
			}
			path := newPath()
			dms := make([]any, len(rdOps))
			for i, op := range rdOps {
				if dms[i], _, err = path.build(r, s, op.elem(s, 0), op.tag, nil); err != nil {
					return err
				}
				o.log = append(o.log, r.Wtime())
			}
			for k := 1; k <= 2; k++ {
				for i, op := range rdOps {
					traced, _ := dms[i].(interface{ TraceRefills(func()) })
					if trace != nil && k == 1 && i == 1 {
						traced.TraceRefills(func() { trace[r.ID()] = append(trace[r.ID()], r.Wtime()) })
					}
					path.refill(s, dms[i], op.elem(s, k))
					if trace != nil && k == 1 && i == 1 {
						traced.TraceRefills(nil)
						trace[r.ID()] = append(trace[r.ID()], r.Wtime())
					}
					o.log = append(o.log, r.Wtime())
				}
			}
			o.unwound = false
			return nil
		})
	}()
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
		out.ranks[i].now = clk.Now()
		_, _, out.ranks[i].msgs, out.ranks[i].msgB = clk.Counters()
	}
	out.failure, out.down = w.Failure()
	var j strings.Builder
	if err := run.WriteJournal(&j); err != nil {
		t.Fatal(err)
	}
	out.journal = j.String()
	if out.down {
		rf, err := w.Reform(nil, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out.revoked = rf.Revoked
	}
	return out
}

// diffRefill reports every way got differs from the reference's want.
func diffRefill(t *testing.T, name string, got, want refillOutcome) {
	t.Helper()
	if got.err != want.err || got.failure != want.failure || got.down != want.down || got.revoked != want.revoked {
		t.Errorf("%s: Run returned %q with failure %+v (%v), %d revoked; mailbox %q, %+v (%v), %d",
			name, got.err, got.failure, got.down, got.revoked, want.err, want.failure, want.down, want.revoked)
	}
	if got.journal != want.journal {
		t.Errorf("%s: journal differs from the mailbox's:\n%s\nmailbox:\n%s", name, got.journal, want.journal)
	}
	for id, w := range want.ranks {
		g := got.ranks[id]
		if g.unwound != w.unwound || g.now != w.now || g.msgs != w.msgs || g.msgB != w.msgB || !slices.Equal(g.log, w.log) {
			t.Errorf("%s rank %d: unwound %v at %v after %v, %d messages, %d bytes; mailbox %v at %v after %v, %d, %d",
				name, id, g.unwound, g.now, g.log, g.msgs, g.msgB, w.unwound, w.now, w.log, w.msgs, w.msgB)
		}
	}
}

// TestRefillLinkFaultsMatchMailbox holds the refill's links to the mailbox
// refill they replaced (the reference build's SetValues) on the rd
// operators at P = 8 and 27: clean, and with node 1 crashing at every
// virtual time where it can stop one of its ranks inside one refill — each
// of their clocks at a send, on either side of a receive, and at the
// refill's end, where the next refill trips. Every rank must unwind where
// the reference does, with its clocks, and the world must record the same
// failure, journal and revoked messages.
func TestRefillLinkFaultsMatchMailbox(t *testing.T) {
	ref := func() streamPath { return &cooPath{} }
	links := func() streamPath { return streamedPath{} }
	for _, tc := range []struct{ q, perNode int }{{2, 2}, {3, 4}} {
		ow := blockWorld(tc.q, 2, 0)
		trace := make([][]float64, ow.nranks)
		want := runRefill(t, ow, tc.perNode, -1, ref, trace)
		diffRefill(t, fmt.Sprintf("P=%d clean", ow.nranks), runRefill(t, ow, tc.perNode, -1, links, nil), want)
		var times []float64
		for id := tc.perNode; id < 2*tc.perNode; id++ {
			times = append(times, trace[id]...)
		}
		slices.Sort(times)
		for _, at := range slices.Compact(times) {
			want := runRefill(t, ow, tc.perNode, at, ref, nil)
			if !want.down {
				t.Fatalf("P=%d: node 1 crash at %v never reached", ow.nranks, at)
			}
			diffRefill(t, fmt.Sprintf("P=%d crash at %v", ow.nranks, at), runRefill(t, ow, tc.perNode, at, links, nil), want)
		}
	}
}

// TestRefillLinkSecondSlotPanics: the matrices of one space share their
// refill links, so a refill begun while another is in flight would write the
// slot the first has taken. Its Begin panics in mp on a rank that exports,
// before taking anything; the first refill still completes across the
// ranks, and a refill after it gives the first values again.
func TestRefillLinkSecondSlotPanics(t *testing.T) {
	ow := blockWorld(2, 2, 0)
	sparse.RunWorld(t, ow.nranks, func(r *mp.Rank) error {
		s, err := ow.space(r)
		if err != nil {
			return err
		}
		elems := make([]fem.ElemMatrix, len(rdOps))
		dms := make([]*sparse.DistMatrix, len(rdOps))
		for i, op := range rdOps {
			elems[i] = op.elem(s, 0)
			if dms[i], err = s.NewMatrix(elems[i], op.tag, nil); err != nil {
				return err
			}
		}
		built := slices.Clone(dms[0].Local().Val)
		n := 64 * len(s.L.Elems)
		var first, second sparse.Refill
		first.Begin(dms[0], n)
		got := func() (msg any) {
			defer func() { msg = recover() }()
			second.Begin(dms[1], n)
			return nil
		}()
		var want any
		if peers := dms[1].StructureView().ExportPeers; len(peers) > 0 {
			want = fmt.Sprintf("mp: rank %d takes a second slot on its link to rank %d before sending the first", r.ID(), peers[0])
		}
		if got != want {
			return fmt.Errorf("a second refill in flight: panic %v, want %v", got, want)
		}
		first.Add(make([]float64, n))
		first.Finish()
		s.Refill(dms[0], elems[0])
		if !slices.Equal(dms[0].Local().Val, built) {
			return fmt.Errorf("the refill after the rejected one gives other values")
		}
		return nil
	})
}

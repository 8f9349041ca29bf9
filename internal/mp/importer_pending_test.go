package mp_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
)

// chainHalo lays p ranks along a line of p·m vertices, each owning m in a
// row and ghosting the depth vertices next to its block: on both sides, or
// upwind only on the side above it, so that each rank sends down and
// receives from up, and the last rank runs ahead.
type chainHalo struct {
	p, m, depth int
	upwind      bool
}

func (ch chainHalo) owner(g int) int { return g / ch.m }

// ghosts returns rank's ghost ids ascending.
func (ch chainHalo) ghosts(rank int) []int {
	var gs []int
	lo, hi := rank*ch.m, (rank+1)*ch.m
	for g := lo - ch.depth; g < hi+ch.depth; g++ {
		if g >= 0 && g < ch.p*ch.m && (g < lo && !ch.upwind || g >= hi) {
			gs = append(gs, g)
		}
	}
	return gs
}

// peers is the importer's schedule for rank, in its order: the ranks it
// receives ghosts from with the ghost positions each fills, and the ranks
// that ghost its vertices with the local indices each is sent, both
// ascending by peer.
func (ch chainHalo) peers(rank int) (recvPeers []int, recvs [][]int, sendPeers []int, sends [][]int) {
	for i, g := range ch.ghosts(rank) {
		o := ch.owner(g)
		if len(recvPeers) == 0 || recvPeers[len(recvPeers)-1] != o {
			recvPeers, recvs = append(recvPeers, o), append(recvs, nil)
		}
		recvs[len(recvs)-1] = append(recvs[len(recvs)-1], ch.m+i)
	}
	for q := 0; q < ch.p; q++ {
		var idx []int
		for _, g := range ch.ghosts(q) {
			if ch.owner(g) == rank {
				idx = append(idx, g-rank*ch.m)
			}
		}
		if len(idx) > 0 {
			sendPeers, sends = append(sendPeers, q), append(sends, idx)
		}
	}
	return recvPeers, recvs, sendPeers, sends
}

// chainTag is the importer's tag; its halo runs under chainTag+1.
const chainTag = 40

// runChain runs rounds of an Exchange and an ExportAdd on every rank, on
// the importer's links or, with mailbox set, on the same schedule through
// the mailbox, and returns each rank's vector bits after its last round and
// the messages the finished world left unreceived. leaver, if not
// negative, returns instead of entering round 2.
func runChain(t *testing.T, w *mp.World, ch chainHalo, rounds, leaver int, mailbox bool) ([][]uint64, int) {
	t.Helper()
	logs := make([][]uint64, ch.p)
	mp.RunWithDeadline(t, w, 60*time.Second, func(r *mp.Rank) error {
		id := r.ID()
		owned := make([]int, ch.m)
		for i := range owned {
			owned[i] = id*ch.m + i
		}
		im, err := sparse.NewImporter(r, sparse.NewRowMap(owned), ch.ghosts(id), ch.owner, chainTag)
		if err != nil {
			return err
		}
		recvPeers, recvs, sendPeers, sends := ch.peers(id)
		x := make([]float64, ch.m+len(ch.ghosts(id)))
		for round := 0; round < rounds; round++ {
			if id == leaver && round == 2 {
				return fmt.Errorf("rank %d left", id)
			}
			r.ChargeCompute(float64(1+(id*7919+round*104729)%(1<<16)), 0)
			for i := range x {
				x[i] = float64(1 + i + 10*id + 100*round)
			}
			if mailbox {
				for i, p := range sendPeers {
					mp.Send(r, p, chainTag+1, gather(x, sends[i]))
				}
				for i, p := range recvPeers {
					for j, v := range mp.Recv[float64](r, p, chainTag+1) {
						x[recvs[i][j]] = v
					}
				}
			} else {
				im.Exchange(x)
			}
			for i := ch.m; i < len(x); i++ {
				x[i] = float64(i + round)
			}
			if mailbox {
				for i, p := range recvPeers {
					mp.Send(r, p, chainTag+1, gather(x, recvs[i]))
					for _, l := range recvs[i] {
						x[l] = 0
					}
				}
				for i, p := range sendPeers {
					r.RecvF64AddScatter(p, chainTag+1, x, sends[i])
				}
			} else {
				im.ExportAdd(x)
			}
		}
		for _, v := range x {
			logs[id] = append(logs[id], math.Float64bits(v))
		}
		return nil
	})
	return logs, mp.Pending(w)
}

func gather(x []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for j, l := range idx {
		out[j] = x[l]
	}
	return out
}

// TestImporterLinksLeaveWhatMailboxLeaves runs rounds of a sparse.Importer's
// Exchange and ExportAdd on its links and, in an identical world, the same
// schedule through the mailbox, for chains of P = 2 to 9 ranks under a
// two-sided and an upwind halo, and requires the same vectors and, counted
// in the finished world's mailboxes and links, the same messages left
// unreceived: none in a clean world or in one with degraded links on every
// node, some where a rank leaves before round 2, so that its neighbours
// unwind and their messages to it stay pending. The sparse package's
// TestImporterLinksMatchMailbox compares everything else a halo run shows;
// what the transport still holds is visible only here.
func TestImporterLinksLeaveWhatMailboxLeaves(t *testing.T) {
	const rounds, perNode = 4, 2
	for _, p := range []int{2, 3, 5, 9} {
		for _, upwind := range []bool{false, true} {
			ch := chainHalo{p: p, m: 3, depth: 2, upwind: upwind}
			clean := mp.FaultWorld(t, p, perNode)
			runChain(t, clean, ch, rounds, -1, true)
			for _, tc := range []struct {
				name   string
				mk     func() *mp.World
				leaver int
			}{
				{"clean", func() *mp.World { return mp.FaultWorld(t, p, perNode) }, -1},
				{"degraded", func() *mp.World {
					w := mp.FaultWorld(t, p, perNode)
					for n := 0; n < w.Topology().NNodes(); n++ {
						end := clean.Clocks()[perNode*n].Now()
						if err := w.ScheduleDegrade(n, end/3, end/3+end/4, 1.5+float64(n%4)); err != nil {
							t.Fatal(err)
						}
					}
					return w
				}, -1},
				{"leaver", func() *mp.World { return mp.FaultWorld(t, p, perNode) }, (p - 1) / 2},
			} {
				name := fmt.Sprintf("P=%d upwind=%v %s", p, upwind, tc.name)
				wantLogs, want := runChain(t, tc.mk(), ch, rounds, tc.leaver, true)
				gotLogs, got := runChain(t, tc.mk(), ch, rounds, tc.leaver, false)
				for id := range wantLogs {
					if !slices.Equal(gotLogs[id], wantLogs[id]) {
						t.Errorf("%s rank %d: vector bits %x, mailbox %x", name, id, gotLogs[id], wantLogs[id])
					}
				}
				if got != want {
					t.Errorf("%s: links left %d messages pending, mailbox %d", name, got, want)
				}
				if (tc.leaver >= 0) != (want > 0) {
					t.Errorf("%s: mailbox left %d messages pending", name, want)
				}
			}
		}
	}
}

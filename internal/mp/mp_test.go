package mp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"heterohpc/internal/netmodel"
	"heterohpc/internal/vclock"
)

func testWorld(t *testing.T, nranks, ranksPerNode int) *World {
	t.Helper()
	topo, err := BlockTopology(nranks, ranksPerNode)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.IBDDR4X, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBlockTopology(t *testing.T) {
	topo, err := BlockTopology(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NRanks() != 10 || topo.NNodes() != 3 {
		t.Fatalf("got %d ranks on %d nodes", topo.NRanks(), topo.NNodes())
	}
	if !topo.SameNode(0, 3) || topo.SameNode(3, 4) {
		t.Error("block layout wrong")
	}
	if topo.NICShare(0) != 4 || topo.NICShare(9) != 2 {
		t.Errorf("NIC shares: %d %d", topo.NICShare(0), topo.NICShare(9))
	}
	if !topo.SameGroup(0, 9) {
		t.Error("default topology should be one placement group")
	}
}

func TestBlockTopologyRejectsBadArgs(t *testing.T) {
	if _, err := BlockTopology(0, 4); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := BlockTopology(4, 0); err == nil {
		t.Error("0 ranks/node accepted")
	}
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology([]int{0, 5}, []int{0}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := NewTopology([]int{0, 0}, []int{0, 0}); err == nil {
		t.Error("empty node accepted")
	}
	if _, err := NewTopology([]int{0}, []int{-1}); err == nil {
		t.Error("negative group accepted")
	}
	if _, err := NewTopology(nil, nil); err == nil {
		t.Error("empty topology accepted")
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendF64(1, 7, []float64{1, 2, 3})
			return nil
		}
		got := r.RecvF64(0, 7)
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			buf := []float64{1, 2, 3}
			r.SendF64(1, 0, buf)
			buf[0] = 99 // must not affect the receiver
			r.Barrier()
			return nil
		}
		r.Barrier()
		if got := r.RecvF64(0, 0); got[0] != 1 {
			return fmt.Errorf("payload aliased sender buffer: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendF64(1, 1, []float64{1})
			r.SendF64(1, 2, []float64{2})
			return nil
		}
		// Receive out of send order by tag.
		if got := r.RecvF64(0, 2); got[0] != 2 {
			return fmt.Errorf("tag 2 got %v", got)
		}
		if got := r.RecvF64(0, 1); got[0] != 1 {
			return fmt.Errorf("tag 1 got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerTag(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < 50; i++ {
				r.SendF64(1, 3, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			if got := r.RecvF64(0, 3)[0]; got != float64(i) {
				return fmt.Errorf("message %d got %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvInts(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendInts(1, 4, []int{10, 20})
			return nil
		}
		got := r.RecvInts(0, 4)
		if len(got) != 2 || got[1] != 20 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		peer := 1 - r.ID()
		got := r.SendRecvF64(peer, 9, []float64{float64(r.ID())})
		if got[0] != float64(peer) {
			return fmt.Errorf("exchange got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeAdvancesOnComm(t *testing.T) {
	topo, _ := BlockTopology(2, 1) // two nodes, inter-node traffic
	fab, _ := netmodel.NewFabric(netmodel.GigE, 2)
	w, _ := NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendF64(1, 0, make([]float64, 1000))
		} else {
			r.RecvF64(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	send := w.Clocks()[0].Now()
	recv := w.Clocks()[1].Now()
	if send <= 0 {
		t.Fatal("sender charged no time")
	}
	// Receiver must be synchronised to at least the arrival time.
	if recv < send {
		t.Fatalf("receiver time %v < sender time %v", recv, send)
	}
	// Transfer of 8k+64 bytes over GigE must dominate the latency term.
	if send < 8064/netmodel.GigE.Inter.Bandwidth {
		t.Fatalf("sender time %v below pure transfer time", send)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	w := testWorld(t, 3, 3)
	sentinel := errors.New("boom")
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return sentinel
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			panic("kaboom")
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("got %v", err)
	}
}

func TestNewWorldValidation(t *testing.T) {
	topo, _ := BlockTopology(2, 2)
	fab, _ := netmodel.NewFabric(netmodel.IBDDR4X, 1)
	if _, err := NewWorld(Topology{}, fab, vclock.LinearRater{}); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := NewWorld(topo, nil, vclock.LinearRater{}); err == nil {
		t.Error("nil fabric accepted")
	}
	if _, err := NewWorld(topo, fab, nil); err == nil {
		t.Error("nil rater accepted")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendF64(5, 0, nil)
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("expected rank-0 panic, got %v", err)
	}
}

func TestWtimeMonotone(t *testing.T) {
	w := testWorld(t, 1, 1)
	err := w.Run(func(r *Rank) error {
		t0 := r.Wtime()
		r.ChargeCompute(1e6, 0)
		if r.Wtime() <= t0 {
			return fmt.Errorf("Wtime did not advance")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- collectives ---

func collectiveSizes() []int { return []int{1, 2, 3, 4, 5, 7, 8, 16, 33} }

func TestBarrierCompletes(t *testing.T) {
	for _, p := range collectiveSizes() {
		w := testWorld(t, p, 4)
		if err := w.Run(func(r *Rank) error {
			for i := 0; i < 3; i++ {
				r.Barrier()
			}
			return nil
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range collectiveSizes() {
		for root := 0; root < p; root += max(1, p/3) {
			w := testWorld(t, p, 4)
			err := w.Run(func(r *Rank) error {
				var data []float64
				if r.ID() == root {
					data = []float64{3.5, 4.5}
				}
				got := r.Bcast(root, data)
				if len(got) != 2 || got[0] != 3.5 || got[1] != 4.5 {
					return fmt.Errorf("rank %d got %v", r.ID(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range collectiveSizes() {
		w := testWorld(t, p, 4)
		err := w.Run(func(r *Rank) error {
			res := r.Allreduce(OpSum, []float64{float64(r.ID()), 1})
			if wantSum := float64(p*(p-1)) / 2; len(res) != 2 || res[0] != wantSum || res[1] != float64(p) {
				return fmt.Errorf("rank %d: allreduce got %v", r.ID(), res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	const p = 7
	w := testWorld(t, p, 4)
	err := w.Run(func(r *Rank) error {
		x := float64(r.ID())
		if s := r.AllreduceScalar(OpSum, x); s != 21 {
			return fmt.Errorf("sum got %v", s)
		}
		if m := r.AllreduceScalar(OpMax, x); m != 6 {
			return fmt.Errorf("max got %v", m)
		}
		if m := r.AllreduceScalar(OpMin, x); m != 0 {
			return fmt.Errorf("min got %v", m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceConsistentAcrossRanks(t *testing.T) {
	const p = 9
	w := testWorld(t, p, 2)
	results := make([]float64, p)
	err := w.Run(func(r *Rank) error {
		v := r.AllreduceScalar(OpSum, math.Sqrt(float64(r.ID()+1)))
		results[r.ID()] = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < p; i++ {
		if results[i] != results[0] {
			t.Fatalf("rank %d got %v, rank 0 got %v", i, results[i], results[0])
		}
	}
}

func TestCollectivesInterleaveWithP2P(t *testing.T) {
	const p = 4
	w := testWorld(t, p, 2)
	err := w.Run(func(r *Rank) error {
		sum := r.AllreduceScalar(OpSum, 1)
		if r.ID() == 0 {
			r.SendF64(1, 11, []float64{sum})
		}
		r.Barrier()
		if r.ID() == 1 {
			if got := r.RecvF64(0, 11); got[0] != p {
				return fmt.Errorf("got %v", got)
			}
		}
		r.Bcast(0, []float64{1})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveVirtualTimeScalesWithRanks(t *testing.T) {
	// An 8-byte allreduce should cost more virtual time on 64 ranks than on
	// 8 ranks (more tree stages), on an inter-node fabric.
	times := map[int]float64{}
	for _, p := range []int{8, 64} {
		topo, _ := BlockTopology(p, 4)
		fab, _ := netmodel.NewFabric(netmodel.GigE, topo.NNodes())
		w, _ := NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
		if err := w.Run(func(r *Rank) error {
			r.AllreduceScalar(OpSum, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var maxT float64
		for _, c := range w.Clocks() {
			if c.Now() > maxT {
				maxT = c.Now()
			}
		}
		times[p] = maxT
	}
	if times[64] <= times[8] {
		t.Fatalf("allreduce on 64 ranks (%v) not slower than on 8 (%v)", times[64], times[8])
	}
}

// Cross-validation: the virtual time charged for a point-to-point send must
// equal the fabric's analytic prediction exactly (model and runtime agree).
func TestSendChargeMatchesFabricModel(t *testing.T) {
	topo, _ := BlockTopology(4, 2) // 2 nodes
	fab, _ := netmodel.NewFabric(netmodel.IBDDR4X, 2)
	w, _ := NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
	const n = 1234
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendF64(2, 0, make([]float64, n)) // inter-node
			r.SendF64(1, 0, make([]float64, n)) // intra-node
		}
		if r.ID() == 1 || r.ID() == 2 {
			r.RecvF64(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bytes := 8*n + 64 // payload + header
	wantInter := fab.P2P(bytes, false, true, 2)
	wantIntra := fab.P2P(bytes, true, true, 2)
	got := w.Clocks()[0].Now()
	if diff := got - (wantInter + wantIntra); diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("sender charged %v, model predicts %v", got, wantInter+wantIntra)
	}
	// Receivers end exactly at their message's arrival time.
	if r1 := w.Clocks()[1].Now(); r1 != wantInter+wantIntra {
		t.Fatalf("intra receiver at %v, arrival %v", r1, wantInter+wantIntra)
	}
	if r2 := w.Clocks()[2].Now(); r2 != wantInter {
		t.Fatalf("inter receiver at %v, arrival %v", r2, wantInter)
	}
}

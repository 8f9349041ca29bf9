package mp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

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

// sendRecvCase sends data from rank 0 to rank 1 and checks the payload
// delivered, the bytes charged for it (unsafe.Sizeof of the element times
// the length) and the payload draws counted (non-empty float64 sends only).
func sendRecvCase[T payload](data []T, bytes int, gets int64) func(*testing.T) {
	return func(t *testing.T) {
		w := testWorld(t, 2, 2)
		err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				Send(r, 1, 7, data)
				return nil
			}
			if got := Recv[T](r, 0, 7); !slices.Equal(got, data) {
				return fmt.Errorf("got %v, want %v", got, data)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := w.Clocks()[0].Now(), w.PriceBytes(0, 1, bytes); got != want {
			t.Fatalf("the send charged %v, the price of %d bytes is %v", got, bytes, want)
		}
		if got := w.gets.Load(); got != gets {
			t.Fatalf("%d payload draws counted, want %d", got, gets)
		}
	}
}

// TestRunRefusesASecondRun: every rank of a finished world has exited dead,
// so a second Run would park each rank on peers that can never send
// again; Run refuses it with an mp: error instead.
func TestRunRefusesASecondRun(t *testing.T) {
	w := testWorld(t, 4, 2)
	body := func(r *Rank) error {
		r.AllreduceScalar(OpSum, 1)
		Send(r, (r.ID()+1)%r.Size(), 7, []float64{1})
		Recv[float64](r, (r.ID()+r.Size()-1)%r.Size(), 7)
		return nil
	}
	if err := runWithDeadline(t, w, 30*time.Second, body); err != nil {
		t.Fatal(err)
	}
	if err := runWithDeadline(t, w, 10*time.Second, body); err == nil || !strings.HasPrefix(err.Error(), "mp: ") {
		t.Fatalf("second Run returned %v, want an mp: error", err)
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	t.Run("float64", sendRecvCase([]float64{1, 2, 3}, 24, 1))
	t.Run("int", sendRecvCase([]int{10, 20}, 16, 0))
	t.Run("byte", sendRecvCase([]byte("blob"), 4, 0))
	t.Run("empty", sendRecvCase([]float64{}, 0, 0))
}

// TestSendHandsPayloadOver: a payload is the receiver's from its send on,
// the very slice the sender passed, not a copy of it.
func TestSendHandsPayloadOver(t *testing.T) {
	sentF, sentB := []float64{1, 2, 3}, []byte("blob")
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			Send(r, 1, 0, sentF)
			Send(r, 1, 1, sentB)
			return nil
		}
		if got := Recv[float64](r, 0, 0); &got[0] != &sentF[0] {
			return fmt.Errorf("received %v, not the float64 slice rank 0 sent", got)
		}
		if got := Recv[byte](r, 0, 1); &got[0] != &sentB[0] {
			return fmt.Errorf("received %q, not the byte slice rank 0 sent", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvOfAnotherElementTypePanics: a receive whose element type is not
// its send's panics, naming the source and tag, instead of returning nil.
func TestRecvOfAnotherElementTypePanics(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			Send(r, 1, 5, []int{1, 2})
			return nil
		}
		got := Recv[float64](r, 0, 5)
		return fmt.Errorf("an int message received as float64 returned %v", got)
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 ||
		!strings.Contains(err.Error(), "mp: a float64 receive from rank 0 under tag 5 found another element type") {
		t.Fatalf("got %v, want rank 1's element-type panic", err)
	}
}

func TestTagMatching(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			Send(r, 1, 1, []float64{1})
			Send(r, 1, 2, []float64{2})
			return nil
		}
		// Receive out of send order by tag.
		if got := Recv[float64](r, 0, 2); got[0] != 2 {
			return fmt.Errorf("tag 2 got %v", got)
		}
		if got := Recv[float64](r, 0, 1); got[0] != 1 {
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
				Send(r, 1, 3, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			if got := Recv[float64](r, 0, 3)[0]; got != float64(i) {
				return fmt.Errorf("message %d got %v", i, got)
			}
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
			Send(r, 1, 0, make([]float64, 1000))
		} else {
			Recv[float64](r, 0, 0)
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
			Send[float64](r, 5, 0, nil)
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

// TestBcastResultsArePrivate: the tree hands one payload from rank to rank,
// but every rank, the root included, returns a slice no other rank holds, so
// a rank that writes its result changes no other rank's.
func TestBcastResultsArePrivate(t *testing.T) {
	const p, root = 7, 2
	w := testWorld(t, p, 4)
	results := make([][]float64, p)
	problems := make([]string, p)
	err := w.Run(func(r *Rank) error {
		var data []float64
		if r.ID() == root {
			data = []float64{3.5, 4.5}
		}
		got := r.Bcast(root, data)
		if r.ID() == root && &got[0] == &data[0] {
			problems[r.ID()] = "the root returned its own data"
		}
		got[0] = float64(100 + r.ID())
		results[r.ID()] = got
		r.Barrier()
		if got[0] != float64(100+r.ID()) || got[1] != 4.5 {
			problems[r.ID()] = fmt.Sprintf("rank %d's result became %v", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range problems {
		if pr != "" {
			t.Error(pr)
		}
	}
	for i := range results {
		for j := i + 1; j < p; j++ {
			if &results[i][0] == &results[j][0] {
				t.Fatalf("ranks %d and %d share one result", i, j)
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
			Send(r, 1, 11, []float64{sum})
		}
		r.Barrier()
		if r.ID() == 1 {
			if got := Recv[float64](r, 0, 11); got[0] != p {
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
			Send(r, 2, 0, make([]float64, n)) // inter-node
			Send(r, 1, 0, make([]float64, n)) // intra-node
		}
		if r.ID() == 1 || r.ID() == 2 {
			Recv[float64](r, 0, 0)
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

// A price is what the send it prices charges the sender's clock
// (TestSendChargeMatchesFabricModel holds both to the fabric model).
func TestPriceBytesMatchesSendCharge(t *testing.T) {
	w := testWorld(t, 4, 2)
	const n = 1024
	err := w.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			Send(r, 2, 0, make([]float64, n))
		case 2:
			Recv[float64](r, 0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.Clocks()[0].Now(), w.PriceBytes(0, 2, 8*n); got != want {
		t.Fatalf("the send charged %v, PriceBytes(0,2,%d) = %v", got, 8*n, want)
	}
	if w.PriceBytes(0, 1, 8*n) >= w.PriceBytes(0, 2, 8*n) {
		t.Fatal("intra-node transfer not cheaper than inter-node")
	}
}

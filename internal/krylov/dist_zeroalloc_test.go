package krylov

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// newTestWorld builds an nranks-rank world, two ranks per node, on a
// loopback fabric.
func newTestWorld(t *testing.T, nranks int) *mp.World {
	t.Helper()
	topo, err := mp.BlockTopology(nranks, 2)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.IBDDR4X, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDistributedCGSteadyStateZeroAlloc asserts the full distributed solve
// path — CG over a sparse.DistMatrix, ghost exchange through the Importer,
// scalar allreduces on the world's shared state — allocates nothing
// once warm. The only counter that sees every rank goroutine is the
// process-wide malloc count, which also sees the runtime and whatever else
// the test binary is doing; so it is read over several windows of solves,
// each between two barriers, and the assertion is on the quietest window: a
// steady-state allocation on any rank in any layer is in every window, a
// stray one is not.
func TestDistributedCGSteadyStateZeroAlloc(t *testing.T) {
	const (
		nranks  = 4
		perRank = 48
		n       = nranks * perRank
		solves  = 10
		windows = 5
	)
	w := newTestWorld(t, nranks)

	var avg float64 // written by rank 0 before Run returns
	err := w.Run(func(r *mp.Rank) error {
		// 1-D Laplacian on n rows, contiguous block ownership: each rank
		// couples to its neighbours through one ghost row per side.
		base := r.ID() * perRank
		owner := func(g int) int { return g / perRank }
		var coo sparse.COO
		owned := make([]int, perRank)
		for i := 0; i < perRank; i++ {
			g := base + i
			owned[i] = g
			coo.Add(g, g, 2)
			if g > 0 {
				coo.Add(g, g-1, -1)
			}
			if g < n-1 {
				coo.Add(g, g+1, -1)
			}
		}
		dm, err := sparse.NewDistMatrix(r, sparse.NewRowMap(owned), &coo, owner, 300)
		if err != nil {
			return err
		}
		pc := NewILU0(dm.Local(), dm.NOwned(), r)
		if err := pc.Setup(); err != nil {
			return err
		}
		rhs := make([]float64, perRank)
		for i := range rhs {
			rhs[i] = math.Sin(float64(base + i))
		}
		x := make([]float64, perRank)
		opt := Options{Tol: 1e-10, Work: &Workspace{}}
		var sys System = dm
		solve := func() error {
			for j := range x {
				x[j] = 0
			}
			_, err := CG(sys, pc, rhs, x, opt)
			return err
		}
		// Warm everything the steady state touches: workspace vectors,
		// mailbox queues, links, and the barrier path itself.
		for k := 0; k < 2; k++ {
			if err := solve(); err != nil {
				return err
			}
			r.Barrier()
		}
		var before, after runtime.MemStats
		quietest := uint64(math.MaxUint64)
		if r.ID() == 0 {
			runtime.GC()
		}
		for win := 0; win < windows; win++ {
			if r.ID() == 0 {
				runtime.ReadMemStats(&before)
			}
			r.Barrier()
			for k := 0; k < solves; k++ {
				if err := solve(); err != nil {
					return err
				}
			}
			r.Barrier()
			if r.ID() == 0 {
				runtime.ReadMemStats(&after)
				quietest = min(quietest, after.Mallocs-before.Mallocs)
			}
		}
		if r.ID() == 0 {
			avg = float64(quietest) / solves
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same rounding convention as testing.AllocsPerRun: a sub-one average
	// is background noise, one-or-more is a real per-solve allocation.
	if avg >= 1 {
		t.Fatalf("distributed CG steady state: %.2f allocs/solve across the world in the quietest of %d windows, want 0", avg, windows)
	}
	if avg > 0 {
		t.Logf("note: %.3f background allocs/solve (below the per-op threshold)", avg)
	}
}

// sanity: the distributed solve above must actually converge; checked here
// once so the alloc test can't silently pass on a broken system.
func TestDistributedCGSolvesLaplacian(t *testing.T) {
	const (
		nranks  = 4
		perRank = 12
		n       = nranks * perRank
	)
	w := newTestWorld(t, nranks)
	err := w.Run(func(r *mp.Rank) error {
		base := r.ID() * perRank
		owner := func(g int) int { return g / perRank }
		var coo sparse.COO
		owned := make([]int, perRank)
		for i := 0; i < perRank; i++ {
			g := base + i
			owned[i] = g
			coo.Add(g, g, 2)
			if g > 0 {
				coo.Add(g, g-1, -1)
			}
			if g < n-1 {
				coo.Add(g, g+1, -1)
			}
		}
		dm, err := sparse.NewDistMatrix(r, sparse.NewRowMap(owned), &coo, owner, 300)
		if err != nil {
			return err
		}
		pc := NewILU0(dm.Local(), dm.NOwned(), r)
		if err := pc.Setup(); err != nil {
			return err
		}
		// Solve A·x = A·1 and expect x = 1.
		ones := make([]float64, perRank)
		for i := range ones {
			ones[i] = 1
		}
		rhs := make([]float64, perRank)
		dm.Apply(ones, rhs)
		x := make([]float64, perRank)
		res, err := CG(dm, pc, rhs, x, Options{Tol: 1e-12, Work: &Workspace{}})
		if err != nil {
			return err
		}
		for i, v := range x {
			if math.Abs(v-1) > 1e-8 {
				return fmt.Errorf("rank %d x[%d] = %v after %d iters", r.ID(), i, v, res.Iterations)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClassILU0SetupZeroAlloc holds NewPrecond's ILU(0) to no allocation per
// Setup once warm, on the building and on the adopting rank: ranks 1 and 2
// of the 1-D Laplacian are class-mates, so one of them factors and the
// other adopts at every round; an allreduce separates the rounds, as a
// solve does. The count is read as in TestDistributedCGSteadyStateZeroAlloc.
func TestClassILU0SetupZeroAlloc(t *testing.T) {
	const (
		nranks  = 4
		perRank = 48
		n       = nranks * perRank
		rounds  = 10
		windows = 5
	)
	w := newTestWorld(t, nranks)
	var avg float64 // written by rank 0 before Run returns
	shared := make([]bool, nranks)
	err := w.Run(func(r *mp.Rank) error {
		base := r.ID() * perRank
		var coo sparse.COO
		owned := make([]int, perRank)
		for i := range owned {
			g := base + i
			owned[i] = g
			coo.Add(g, g, 2)
			if g > 0 {
				coo.Add(g, g-1, -1)
			}
			if g < n-1 {
				coo.Add(g, g+1, -1)
			}
		}
		dm, err := sparse.NewDistMatrix(r, sparse.NewRowMap(owned), &coo, func(g int) int { return g / perRank }, 300)
		if err != nil {
			return err
		}
		pc, err := NewPrecond("ilu0", dm)
		if err != nil {
			return err
		}
		p := pc.(*ILU0)
		round := func() error {
			err := p.Setup()
			r.AllreduceScalar(mp.OpSum, 0)
			return err
		}
		for k := 0; k < 2; k++ {
			if err := round(); err != nil {
				return err
			}
		}
		shared[r.ID()] = &p.lu[0] == &p.cell.buf.lu[0]
		var before, after runtime.MemStats
		quietest := uint64(math.MaxUint64)
		if r.ID() == 0 {
			runtime.GC()
		}
		for win := 0; win < windows; win++ {
			r.Barrier()
			if r.ID() == 0 {
				runtime.ReadMemStats(&before)
			}
			r.Barrier()
			for k := 0; k < rounds; k++ {
				if err := round(); err != nil {
					return err
				}
			}
			r.Barrier()
			if r.ID() == 0 {
				runtime.ReadMemStats(&after)
				quietest = min(quietest, after.Mallocs-before.Mallocs)
			}
		}
		if r.ID() == 0 {
			avg = float64(quietest) / rounds
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !shared[1] || !shared[2] {
		t.Fatalf("ranks 1 and 2 read their class cell's factor: %v, %v", shared[1], shared[2])
	}
	if avg >= 1 {
		t.Fatalf("class ILU(0) Setup: %.2f allocs/round across the world in the quietest of %d windows, want 0", avg, windows)
	}
}

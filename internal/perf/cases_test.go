// Package perf holds the host-performance gates: benchmarks over the
// simulator's hot paths whose allocation counts the tests in perf_test.go
// hold to ceilings, and the live heap of a sweep's job (the virtual clock
// measures the modelled platforms; this package measures the simulator
// itself). It has no non-test code: run the bodies with `go test -run '^$'
// -bench . -benchmem ./internal/perf`.
package perf

import (
	"math"
	"runtime"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/fem"
	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/platform"
	"heterohpc/internal/rd"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// BenchmarkRDIteration is one full platform-modelled RD run (world setup +
// two BDF2 steps on 8 ranks) — the unit of every figure, and the case whose
// allocs/op and bytes/op ceilings the CI perf-smoke step enforces. Each op
// makes its own target, as the other set-up gates do, so that it builds
// every shape it needs: on a shared target a job adopts what the job before
// it built (BenchmarkRDSweepOneTarget gates that path).
func BenchmarkRDIteration(b *testing.B) {
	var virt float64
	for i := 0; i < b.N; i++ {
		tg, err := core.NewTarget("ec2", 1)
		if err != nil {
			b.Fatal(err)
		}
		app, err := core.WeakRD(8, 6, 2)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := tg.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1})
		if err != nil {
			b.Fatal(err)
		}
		virt = rep.Iter.MaxTotal
	}
	b.ReportMetric(virt, "virtual-s/iter")
}

// BenchmarkRDJobP64 is one RD job of 64 ranks (4³ elements each, two BDF2
// steps): the smallest gate whose block decomposition has class-mates — 27
// position classes of 64 ranks — so the only one where set-up's sharing of
// frozen operator values between ranks shows.
func BenchmarkRDJobP64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tg, err := core.NewTarget("ec2", 1)
		if err != nil {
			b.Fatal(err)
		}
		app, err := core.WeakRD(64, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tg.Run(core.JobSpec{Ranks: 64, App: app, SkipSteps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNSIteration is the Navier–Stokes equivalent (8 ranks, reduced
// size: ~4 linear solves per step).
func BenchmarkNSIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tg, err := core.NewTarget("ec2", 1)
		if err != nil {
			b.Fatal(err)
		}
		app, err := core.WeakNS(8, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tg.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRDSweepOneTarget is a weak-scaling sweep in small: RD jobs at P =
// 8, 27 and 64 (4³ elements each, two BDF2 steps) on one fresh target per
// op. The jobs share the target's intern table, so the P = 27 job builds
// only the shapes P = 8 did not have, and the P = 64 job adopts all 27.
func BenchmarkRDSweepOneTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tg, err := core.NewTarget("ec2", 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{8, 27, 64} {
			app, err := core.WeakRD(p, 4, 2)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tg.Run(core.JobSpec{Ranks: p, App: app, SkipSteps: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// rdLiveHeapPerRank runs an RD job at P = 27 and then one at P = 64 on one
// fresh target (6³ elements per rank, two BDF2 steps each) and returns the
// P = 64 job's live heap per rank: what rank 0 reads after a full GC once it
// has checkpointed its first step, less the heap before the first job.
func rdLiveHeapPerRank(t *testing.T) uint64 {
	t.Helper()
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	var sampled uint64
	for _, p := range []int{27, 64} {
		app, err := core.WeakRD(p, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		if p == 64 {
			app = heapSampledRD{RDApp: app.(core.RDApp), heap: &sampled}
		}
		if _, err := tg.Run(core.JobSpec{Ranks: p, App: app, SkipSteps: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if sampled <= base {
		t.Fatalf("rank 0 sampled %d B of live heap, %d B before the first job", sampled, base)
	}
	return (sampled - base) / 64
}

// heapSampledRD is an RD application whose rank 0 stores the live heap in
// *heap once its first step is done, from the time loop's checkpoint hook.
type heapSampledRD struct {
	core.RDApp
	heap *uint64
}

func (a heapSampledRD) Run(r *mp.Rank) ([]vclock.PhaseTimes, map[string]float64, error) {
	if r.ID() == 0 {
		a.Cfg.Checkpoint = func(st rd.State) error {
			if st.StepsDone == 1 {
				*a.heap = liveHeap()
			}
			return nil
		}
	}
	return a.RDApp.Run(r)
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkCGSteadySerial measures repeated warm-workspace CG solves of a
// 3-D Laplacian — the steady-state solver path with setup excluded;
// allocs/op must be 0.
func BenchmarkCGSteadySerial(b *testing.B) {
	const nx = 16
	a := lap3d(nx)
	n := a.NRows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	var sys krylov.System = krylov.SerialSystem{A: a}
	pc := krylov.NewILU0(a, n, nil)
	if err := pc.Setup(); err != nil {
		b.Fatal(err)
	}
	opt := krylov.Options{Tol: 1e-8, Work: &krylov.Workspace{}}
	if _, err := krylov.CG(sys, pc, rhs, x, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.CG(sys, pc, rhs, x, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGMRESArnoldi measures warm-workspace restarted GMRES on a
// convection-diffusion operator; allocs/op must be 0 (the per-cycle
// triangular-solve vector lives in the workspace).
func BenchmarkGMRESArnoldi(b *testing.B) {
	const n = 400
	a := convdiff1d(n, 0.4)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	var sys krylov.System = krylov.SerialSystem{A: a}
	opt := krylov.Options{Tol: 1e-10, Restart: 30, Work: &krylov.Workspace{}}
	if _, err := krylov.GMRES(sys, nil, rhs, x, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.GMRES(sys, nil, rhs, x, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHaloExchangeP1000 is the ghost exchange at the paper's top point:
// 1000 ranks of 2³ elements on the ec2 fabric, each trading a few values
// with its 26 neighbours — all message hand-off, no data. One op is one
// Importer.Exchange on every rank; allocs/op must be 0.
func BenchmarkHaloExchangeP1000(b *testing.B) {
	const p, n = 10, 2
	m := mesh.NewUnitCube(p * n)
	benchInWorld(b, p*p*p, func(r *mp.Rank) (func(), error) {
		s, err := fem.NewSpaceBlock(r, m, p, p, p, 1000)
		if err != nil {
			return nil, err
		}
		var coo sparse.COO
		s.AssembleMatrix(&coo, func(e int, out *[8][8]float64) { s.El.Mass(1, out, r) })
		dm, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1100)
		if err != nil {
			return nil, err
		}
		x := make([]float64, dm.NCols())
		return func() { dm.Importer().Exchange(x) }, nil
	})
}

// BenchmarkAllreduceScalarP512 is the reduction under every distributed dot
// product, two per Krylov iteration on every rank: 512 ranks file one
// float64 each, and the last to arrive resolves the binomial reduce and
// broadcast for all of them. allocs/op must be 0.
func BenchmarkAllreduceScalarP512(b *testing.B) {
	benchInWorld(b, 512, func(r *mp.Rank) (func(), error) {
		return func() { r.AllreduceScalar(mp.OpSum, 1) }, nil
	})
}

// BenchmarkSpaceRefillP27 is the per-step matrix reassembly of the
// applications: 27 ranks of 4³ elements re-evaluate the RD system operator's
// element matrices and stream them into its DistMatrix, off-rank values
// shipped to their owners (fem.Space.Refill). allocs/op must be 0. The
// traffic of a refill is one-way — a rank that owns none of its neighbours'
// rows waits for nobody — so each op ends in a barrier, as a time step ends
// in the solver's reductions: without one such a rank runs thousands of
// refills ahead and their payloads pile up in the mailboxes.
func BenchmarkSpaceRefillP27(b *testing.B) {
	const p, n = 3, 4
	m := mesh.NewUnitCube(p * n)
	benchInWorld(b, p*p*p, func(r *mp.Rank) (func(), error) {
		s, err := fem.NewSpaceBlock(r, m, p, p, p, 1000)
		if err != nil {
			return nil, err
		}
		elem := func(e int, out *[8][8]float64, ch sparse.Charger) {
			var ke [8][8]float64
			s.El.Mass(28.18, out, ch)
			s.El.Stiffness(0.83, &ke, ch)
			for a := range ke {
				for c := range ke[a] {
					out[a][c] += ke[a][c]
				}
			}
		}
		dm, err := s.NewMatrix(elem, 1100, nil)
		if err != nil {
			return nil, err
		}
		refill := func() {
			s.Refill(dm, elem)
			r.Barrier()
		}
		// The refill links are sized at the build and the barrier keeps each
		// at most one message deep, so the first refill reaches the steady
		// state. The case keeps its forty untimed refills: its virtual-s/op
		// averages over the run, so the count fixes the figure it reports.
		for i := 0; i < 40; i++ {
			refill()
		}
		return refill, nil
	})
}

// benchInWorld times b.N collective calls of the op that setup returns on
// every rank of a p-rank ec2 world (dense packing, the platform's fabric and
// compute rater, as core.Target builds it). A few untimed calls warm the
// mailboxes and links first; rank 0's virtual clock gives
// virtual-s/op.
func benchInWorld(b *testing.B, p int, setup func(r *mp.Rank) (func(), error)) {
	plat, err := platform.Get("ec2")
	if err != nil {
		b.Fatal(err)
	}
	topo, err := mp.BlockTopology(p, plat.CoresPerNode())
	if err != nil {
		b.Fatal(err)
	}
	scale := plat.CommScale
	if scale == 0 {
		scale = 1
	}
	fab, err := netmodel.NewFabricScaled(plat.Net, topo.NNodes(), scale)
	if err != nil {
		b.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, plat.Rater)
	if err != nil {
		b.Fatal(err)
	}
	err = w.Run(func(r *mp.Rank) error {
		op, err := setup(r)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			op()
		}
		// The first barrier allocates its partners' queues, on some ranks
		// after rank 0 has left it; the second finds everything in place.
		r.Barrier()
		// The benchmark goroutine is parked in w.Run, so rank 0 owns b
		// between the next two barriers.
		r.Barrier()
		if r.ID() == 0 {
			b.ResetTimer()
		}
		r.Barrier()
		t0 := r.Wtime()
		for i := 0; i < b.N; i++ {
			op()
		}
		if r.ID() == 0 {
			b.ReportMetric((r.Wtime()-t0)/float64(b.N), "virtual-s/op")
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// lap3d builds the 7-point Laplacian on an nx³ grid (SPD).
func lap3d(nx int) *sparse.CSR {
	var c sparse.COO
	id := func(i, j, k int) int { return (k*nx+j)*nx + i }
	for k := 0; k < nx; k++ {
		for j := 0; j < nx; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				c.Add(r, r, 6)
				if i > 0 {
					c.Add(r, id(i-1, j, k), -1)
				}
				if i < nx-1 {
					c.Add(r, id(i+1, j, k), -1)
				}
				if j > 0 {
					c.Add(r, id(i, j-1, k), -1)
				}
				if j < nx-1 {
					c.Add(r, id(i, j+1, k), -1)
				}
				if k > 0 {
					c.Add(r, id(i, j, k-1), -1)
				}
				if k < nx-1 {
					c.Add(r, id(i, j, k+1), -1)
				}
			}
		}
	}
	m, err := sparse.NewCSRFromCOO(nx*nx*nx, nx*nx*nx, &c)
	if err != nil {
		panic(err)
	}
	return m
}

// convdiff1d builds a nonsymmetric 1-D convection-diffusion matrix.
func convdiff1d(n int, pe float64) *sparse.CSR {
	var c sparse.COO
	for i := 0; i < n; i++ {
		c.Add(i, i, 2+pe/2)
		if i > 0 {
			c.Add(i, i-1, -1-pe)
		}
		if i < n-1 {
			c.Add(i, i+1, -1+pe/2)
		}
	}
	m, err := sparse.NewCSRFromCOO(n, n, &c)
	if err != nil {
		panic(err)
	}
	return m
}

package perf

import (
	"math"
	"testing"

	"heterohpc/internal/core"
	"heterohpc/internal/fem"
	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/platform"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// Case is one tracked benchmark: a name that stays stable across commits
// (BENCH.json diffs pair results by it) and a standard benchmark body.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Cases returns the tracked set. Order is the BENCH.json order.
func Cases() []Case {
	return []Case{
		{Name: "rd-iteration", Bench: benchRDIteration},
		{Name: "ns-iteration", Bench: benchNSIteration},
		{Name: "cg-steady-serial", Bench: benchCGSteadySerial},
		{Name: "gmres-arnoldi", Bench: benchGMRESArnoldi},
		{Name: "distmatrix-build", Bench: benchDistMatrixBuild},
		{Name: "distmatrix-rebuild", Bench: benchDistMatrixRebuild},
		{Name: "ilu0-setup", Bench: benchILU0Setup},
		{Name: "halo-exchange-p1000", Bench: benchHaloExchangeP1000},
		{Name: "allreduce-scalar-p512", Bench: benchAllreduceScalarP512},
		{Name: "space-refill-p27", Bench: benchSpaceRefillP27},
	}
}

// benchRDIteration is one full platform-modelled RD run (world setup + two
// BDF2 steps on 8 ranks) — the unit of every figure, and the case whose
// allocs/op and bytes/op ceilings the CI perf-smoke step enforces. The root
// package's BenchmarkRDIteration runs this body.
func benchRDIteration(b *testing.B) {
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
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

// benchNSIteration is the Navier–Stokes equivalent (8 ranks, reduced size:
// ~4 linear solves per step).
func benchNSIteration(b *testing.B) {
	tg, err := core.NewTarget("ec2", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, err := core.WeakNS(8, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tg.Run(core.JobSpec{Ranks: 8, App: app, SkipSteps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCGSteadySerial measures repeated warm-workspace CG solves of a 3-D
// Laplacian — the steady-state solver path with setup excluded; allocs/op
// must be 0.
func benchCGSteadySerial(b *testing.B) {
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

// benchGMRESArnoldi measures warm-workspace restarted GMRES on a
// convection-diffusion operator; allocs/op must be 0 (the per-cycle
// triangular-solve vector lives in the workspace).
func benchGMRESArnoldi(b *testing.B) {
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

// benchDistMatrixBuild is the symbolic set-up a job pays for the first
// operator of a space: 8 ranks of 10³ elements each assemble the mass matrix
// into a COO and build its DistMatrix cold (classification, structure
// exchange, CSR pattern and refill plan). Every iteration builds in a fresh
// world — a world interns the shapes of the matrices built in it, so a second
// build of the same operator takes the adopt path that
// benchDistMatrixRebuild times. World and space construction are outside the
// timed region.
func benchDistMatrixBuild(b *testing.B) { benchDistMatrix(b, true) }

// benchDistMatrixRebuild is what every later operator of the space pays, and
// what a rank pays whose position class another rank has built for: the same
// assembly and build in a world that already holds the shape, so the build
// replays the structure exchange, verifies its contributions against the
// interned plan and allocates only the values and its per-rank lists.
func benchDistMatrixRebuild(b *testing.B) { benchDistMatrix(b, false) }

// benchDistMatrix times b.N assemble-and-build rounds of the mass matrix on
// 8 ranks: cold, one round in each of b.N worlds; otherwise all in one world
// after an untimed first build.
func benchDistMatrix(b *testing.B, cold bool) {
	const p, n = 2, 10
	m := mesh.NewUnitCube(p * n)
	topo, err := mp.BlockTopology(p*p*p, 8)
	if err != nil {
		b.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.Loopback, topo.NNodes())
	if err != nil {
		b.Fatal(err)
	}
	worlds, rounds := 1, b.N
	if cold {
		worlds, rounds = b.N, 1
	}
	b.StopTimer()
	for ; worlds > 0; worlds-- {
		w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(r *mp.Rank) error {
			s, err := fem.NewSpaceBlock(r, m, p, p, p, 1000)
			if err != nil {
				return err
			}
			elem := func(e int, out *[8][8]float64) { s.El.Mass(1, out, r) }
			var coo sparse.COO
			build := func() error {
				s.AssembleMatrix(&coo, elem)
				_, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1100)
				return err
			}
			// Untimed: the COO's own arrays and, warm, the first build.
			s.AssembleMatrix(&coo, elem)
			if !cold {
				if err := build(); err != nil {
					return err
				}
			}
			// The benchmark goroutine is parked in w.Run, so rank 0 owns b
			// between each pair of barriers.
			r.Barrier()
			if r.ID() == 0 {
				b.StartTimer()
			}
			r.Barrier()
			for i := 0; i < rounds; i++ {
				if err := build(); err != nil {
					return err
				}
			}
			r.Barrier()
			if r.ID() == 0 {
				b.StopTimer()
			}
			r.Barrier()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchILU0Setup refactorises the 27-point trilinear-element stencil on a
// 16³-element grid — the per-refill preconditioner set-up of every solve.
func benchILU0Setup(b *testing.B) {
	a := q1stencil(16)
	pc := krylov.NewILU0(a, a.NRows, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pc.Setup(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHaloExchangeP1000 is the ghost exchange at the paper's top point:
// 1000 ranks of 2³ elements on the ec2 fabric, each trading a few values
// with its 26 neighbours — all message hand-off, no data. One op is one
// Importer.Exchange on every rank; allocs/op must be 0.
func benchHaloExchangeP1000(b *testing.B) {
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

// benchAllreduceScalarP512 is the reduction under every distributed dot
// product, two per Krylov iteration on every rank: 512 ranks file one
// float64 each, and the last to arrive resolves the binomial reduce and
// broadcast for all of them. allocs/op must be 0.
func benchAllreduceScalarP512(b *testing.B) {
	benchInWorld(b, 512, func(r *mp.Rank) (func(), error) {
		return func() { r.AllreduceScalar(mp.OpSum, 1) }, nil
	})
}

// benchSpaceRefillP27 is the per-step matrix reassembly of the applications:
// 27 ranks of 4³ elements re-evaluate the RD system operator's element
// matrices and stream them into its DistMatrix, off-rank values shipped to
// their owners (fem.Space.Refill). allocs/op must be 0. The traffic of a
// refill is one-way — a rank that owns none of its neighbours' rows waits
// for nobody — so each op ends in a barrier, as a time step ends in the
// solver's reductions: without one such a rank runs thousands of refills
// ahead and their payloads pile up in the mailboxes.
func benchSpaceRefillP27(b *testing.B) {
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
		// A payload class a rank only receives fills its private stack (32
		// deep) before it overflows to the shared level its senders draw
		// from: until then each such send is a fresh buffer.
		for i := 0; i < 40; i++ {
			refill()
		}
		return refill, nil
	})
}

// benchInWorld times b.N collective calls of the op that setup returns on
// every rank of a p-rank ec2 world (dense packing, the platform's fabric and
// compute rater, as core.Target builds it). A few untimed calls warm the
// payload pool and the mailboxes first; rank 0's virtual clock gives
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

// q1stencil builds a diagonally dominant matrix with the sparsity of a
// trilinear finite-element operator on an nx³-element grid: every pair of
// vertices sharing an element is coupled (27 entries per interior row).
func q1stencil(nx int) *sparse.CSR {
	nv := nx + 1
	var c sparse.COO
	for k := 0; k < nx; k++ {
		for j := 0; j < nx; j++ {
			for i := 0; i < nx; i++ {
				var vs [8]int
				for a := range vs {
					vs[a] = ((k+a/4)*nv+j+a/2%2)*nv + i + a%2
				}
				for _, va := range vs {
					for _, vb := range vs {
						if va == vb {
							c.Add(va, vb, 8)
						} else {
							c.Add(va, vb, -1)
						}
					}
				}
			}
		}
	}
	m, err := sparse.NewCSRFromCOO(nv*nv*nv, nv*nv*nv, &c)
	if err != nil {
		panic(err)
	}
	return m
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

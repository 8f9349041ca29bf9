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
		{Name: "ilu0-setup", Bench: benchILU0Setup},
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

// benchDistMatrixBuild is the symbolic set-up every job pays per operator:
// 8 ranks of 10³ elements each assemble the mass matrix into a reused COO
// and build its DistMatrix (classification, structure exchange, CSR pattern
// and refill plan). Space construction is outside the timed loop.
func benchDistMatrixBuild(b *testing.B) {
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
		// The benchmark goroutine is parked in w.Run, so rank 0 owns b
		// between the two barriers.
		r.Barrier()
		if r.ID() == 0 {
			b.ResetTimer()
		}
		r.Barrier()
		for i := 0; i < b.N; i++ {
			s.AssembleMatrix(&coo, elem)
			if _, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1100); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
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

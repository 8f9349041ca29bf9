package rd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

func runRanks(t *testing.T, nranks int, body func(r *mp.Rank) error) {
	t.Helper()
	topo, err := mp.BlockTopology(nranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.IBDDR4X, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestExactSolvesThePDE(t *testing.T) {
	// Verify analytically that u = t²(x²+y²+z²) satisfies
	// ∂u/∂t − (1/t²)Δu − (2/t)u = −6 by finite differences.
	u := Exact
	const h = 1e-5
	for _, p := range [][4]float64{{0.3, 0.4, 0.5, 1.2}, {0.9, 0.1, 0.7, 2.0}} {
		x, y, z, tt := p[0], p[1], p[2], p[3]
		dudt := (u(x, y, z, tt+h) - u(x, y, z, tt-h)) / (2 * h)
		lap := (u(x+h, y, z, tt) + u(x-h, y, z, tt) - 2*u(x, y, z, tt)) / (h * h)
		lap += (u(x, y+h, z, tt) + u(x, y-h, z, tt) - 2*u(x, y, z, tt)) / (h * h)
		lap += (u(x, y, z+h, tt) + u(x, y, z-h, tt) - 2*u(x, y, z, tt)) / (h * h)
		lhs := dudt - lap/(tt*tt) - 2/tt*u(x, y, z, tt)
		if math.Abs(lhs-Source) > 1e-4 {
			t.Fatalf("PDE residual %v at %v", lhs-Source, p)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := mesh.NewUnitCube(2)
	cases := []Config{
		{},                                   // nil mesh
		{Mesh: m, T0: -1},                    // negative T0
		{Mesh: m, Dt: -0.1},                  // negative dt
		{Mesh: m, T0: 0.1, Dt: 10, Steps: 1}, // violates SPD condition
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	good := Config{Mesh: m}
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRDSerialAccuracy(t *testing.T) {
	m := mesh.NewUnitCube(8)
	runRanks(t, 1, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 4})
		if err != nil {
			return err
		}
		// Q1 on an 8³ mesh with BDF2: nodal max error should be well below
		// the solution scale (u up to ~3·t² ≈ 4.3).
		if res.MaxErr > 0.02 {
			return fmt.Errorf("max error %v too large", res.MaxErr)
		}
		if res.L2Err > 0.01 {
			return fmt.Errorf("L2 error %v too large", res.L2Err)
		}
		if len(res.StepTimes) != 4 || len(res.SolveIters) != 4 {
			return fmt.Errorf("expected 4 step records, got %d/%d",
				len(res.StepTimes), len(res.SolveIters))
		}
		for k, st := range res.StepTimes {
			if st.Phase(vclock.PhaseAssembly) <= 0 || st.Phase(vclock.PhasePrecond) <= 0 ||
				st.Phase(vclock.PhaseSolve) <= 0 {
				return fmt.Errorf("step %d has empty phase: %+v", k, st)
			}
		}
		return nil
	})
}

func TestRDNodallyExact(t *testing.T) {
	// On a uniform tensor-product grid, the Q1 discretisation is nodally
	// exact for the quadratic-in-space, quadratic-in-time manufactured
	// solution (and BDF2 is exact for t² time dependence), so the only
	// residual error is the CG tolerance. Tightening the tolerance must
	// tighten the error correspondingly — a very strong end-to-end
	// correctness check of assembly, BC handling and the solver chain.
	for _, n := range []int{4, 8} {
		m := mesh.NewUnitCube(n)
		runRanks(t, 1, func(r *mp.Rank) error {
			res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2, Dt: 0.01, Tol: 1e-12})
			if err != nil {
				return err
			}
			if res.L2Err > 1e-8 {
				return fmt.Errorf("n=%d: L2 error %v not at solver tolerance", n, res.L2Err)
			}
			return nil
		})
	}
}

func TestRDParallelMatchesSerial(t *testing.T) {
	m := mesh.NewUnitCube(6)
	var serialErr, parErr float64
	runRanks(t, 1, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 3})
		if err != nil {
			return err
		}
		serialErr = res.L2Err
		return nil
	})
	runRanks(t, 8, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{2, 2, 2}, Steps: 3})
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			parErr = res.L2Err
		}
		return nil
	})
	// Both runs are nodally exact up to solver tolerance, so the solutions
	// agree to that tolerance (the CG iterates themselves differ because
	// the partition changes the preconditioner blocks).
	if math.Abs(serialErr-parErr) > 1e-6 {
		t.Fatalf("serial L2 %v vs parallel L2 %v", serialErr, parErr)
	}
	if serialErr > 1e-6 || parErr > 1e-6 {
		t.Fatalf("errors not at solver tolerance: %v %v", serialErr, parErr)
	}
}

func TestRDPreconditionerChoices(t *testing.T) {
	m := mesh.NewUnitCube(4)
	for _, pc := range []string{"ilu0", "jacobi", "sgs", "none"} {
		runRanks(t, 1, func(r *mp.Rank) error {
			res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2, Precond: pc})
			if err != nil {
				return fmt.Errorf("%s: %w", pc, err)
			}
			if res.MaxErr > 0.1 {
				return fmt.Errorf("%s: max error %v", pc, res.MaxErr)
			}
			return nil
		})
	}
	runRanks(t, 1, func(r *mp.Rank) error {
		_, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 1, Precond: "bogus"})
		if err == nil || err.Error() != `rd: unknown preconditioner "bogus"` {
			return fmt.Errorf("bogus preconditioner gave %v", err)
		}
		return nil
	})
}

func TestRDILUBeatsJacobiIterations(t *testing.T) {
	m := mesh.NewUnitCube(6)
	iters := map[string]int{}
	for _, pc := range []string{"ilu0", "none"} {
		runRanks(t, 1, func(r *mp.Rank) error {
			res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 1, Precond: pc})
			if err != nil {
				return err
			}
			iters[pc] = res.SolveIters[0]
			return nil
		})
	}
	if iters["ilu0"] >= iters["none"] {
		t.Fatalf("ILU0 iterations %d not fewer than unpreconditioned %d",
			iters["ilu0"], iters["none"])
	}
}

func TestRDVirtualTimesPositiveAndOrdered(t *testing.T) {
	// On a 1GbE fabric the parallel run must charge communication time.
	m := mesh.NewUnitCube(4)
	topo, _ := mp.BlockTopology(8, 4)
	fab, _ := netmodel.NewFabric(netmodel.GigE, topo.NNodes())
	w, _ := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 2e9, BytesPerSec: 4e9})
	err := w.Run(func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{2, 2, 2}, Steps: 2})
		if err != nil {
			return err
		}
		for _, st := range res.StepTimes {
			var comm float64
			for _, p := range vclock.Phases {
				comm += st.Comm[p]
			}
			if comm <= 0 {
				return fmt.Errorf("no communication time charged: %+v", st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCallbackErrorPropagates(t *testing.T) {
	m := mesh.NewUnitCube(4)
	runRanks(t, 1, func(r *mp.Rank) error {
		_, err := Run(r, Config{
			Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2,
			Checkpoint: func(State) error { return fmt.Errorf("disk full") },
		})
		if err == nil {
			return fmt.Errorf("checkpoint failure swallowed")
		}
		return nil
	})
}

// TestConstantOperatorsSharedPerClass runs rd on 4³ blocks. The mass matrix,
// the one operator Run freezes, must come out as exactly 27 value arrays
// across the 64 ranks, one per position class, and each rank's must still
// hold, bit for bit, what that rank assembled before it froze it.
func TestConstantOperatorsSharedPerClass(t *testing.T) {
	const nranks = 64
	type frozenOp struct {
		dm        *sparse.DistMatrix
		assembled []float64
	}
	ops := make([][]frozenOp, nranks) // each rank appends to its own only
	defer func(f func(*sparse.DistMatrix)) { freeze = f }(freeze)
	freeze = func(dm *sparse.DistMatrix) {
		own := slices.Clone(dm.Local().Val)
		dm.Freeze()
		id := dm.Rank().ID()
		ops[id] = append(ops[id], frozenOp{dm, own})
	}
	m := mesh.NewUnitCube(8)
	runRanks(t, nranks, func(r *mp.Rank) error {
		_, err := Run(r, Config{Mesh: m, Grid: [3]int{4, 4, 4}, Steps: 1})
		return err
	})
	arrays := map[*float64]bool{}
	for id, rs := range ops {
		if len(rs) != 1 {
			t.Fatalf("rank %d froze %d operators, want 1 (the mass matrix)", id, len(rs))
		}
		a := rs[0].dm.Local()
		for i, v := range a.Val {
			if math.Float64bits(v) != math.Float64bits(rs[0].assembled[i]) {
				t.Fatalf("rank %d: mass Val[%d] = %v after the run, assembled %v", id, i, v, rs[0].assembled[i])
			}
		}
		arrays[&a.Val[0]] = true
	}
	if len(arrays) != 27 {
		t.Errorf("64 ranks hold %d mass value arrays, want 27 (one per position class)", len(arrays))
	}
}

package nse

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

// The Ethier–Steinman field must be divergence free.
func TestExactDivergenceFree(t *testing.T) {
	const h = 1e-6
	pts := [][4]float64{{0.2, -0.3, 0.4, 0.01}, {-0.7, 0.5, -0.1, 0.05}, {0, 0, 0, 0}}
	for _, pt := range pts {
		x, y, z, tt := pt[0], pt[1], pt[2], pt[3]
		ux1, _, _ := exactVelocity(x+h, y, z, tt)
		ux0, _, _ := exactVelocity(x-h, y, z, tt)
		_, vy1, _ := exactVelocity(x, y+h, z, tt)
		_, vy0, _ := exactVelocity(x, y-h, z, tt)
		_, _, wz1 := exactVelocity(x, y, z+h, tt)
		_, _, wz0 := exactVelocity(x, y, z-h, tt)
		div := (ux1-ux0)/(2*h) + (vy1-vy0)/(2*h) + (wz1-wz0)/(2*h)
		if math.Abs(div) > 1e-7 {
			t.Fatalf("divergence %v at %v", div, pt)
		}
	}
}

// The Ethier–Steinman pair must satisfy the momentum equation with f = 0:
// ∂u/∂t + (u·∇)u − νΔu + ∇p = 0 (ρ = μ = 1).
func TestExactSatisfiesMomentum(t *testing.T) {
	const h = 1e-4
	pts := [][4]float64{{0.25, -0.35, 0.15, 0.02}, {-0.5, 0.1, 0.6, 0.01}}
	for _, pt := range pts {
		x, y, z, tt := pt[0], pt[1], pt[2], pt[3]
		for d := 0; d < 3; d++ {
			c := Component(d)
			u, v, w := exactVelocity(x, y, z, tt)
			dudt := (c(x, y, z, tt+h) - c(x, y, z, tt-h)) / (2 * h)
			dx := (c(x+h, y, z, tt) - c(x-h, y, z, tt)) / (2 * h)
			dy := (c(x, y+h, z, tt) - c(x, y-h, z, tt)) / (2 * h)
			dz := (c(x, y, z+h, tt) - c(x, y, z-h, tt)) / (2 * h)
			lap := (c(x+h, y, z, tt) + c(x-h, y, z, tt) +
				c(x, y+h, z, tt) + c(x, y-h, z, tt) +
				c(x, y, z+h, tt) + c(x, y, z-h, tt) - 6*c(x, y, z, tt)) / (h * h)
			var gradP float64
			switch d {
			case 0:
				gradP = (ExactPressure(x+h, y, z, tt) - ExactPressure(x-h, y, z, tt)) / (2 * h)
			case 1:
				gradP = (ExactPressure(x, y+h, z, tt) - ExactPressure(x, y-h, z, tt)) / (2 * h)
			case 2:
				gradP = (ExactPressure(x, y, z+h, tt) - ExactPressure(x, y, z-h, tt)) / (2 * h)
			}
			resid := dudt + u*dx + v*dy + w*dz - nu*lap + gradP
			if math.Abs(resid) > 1e-5 {
				t.Fatalf("momentum residual %v in component %d at %v", resid, d, pt)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("nil mesh accepted")
	}
	m, _ := mesh.NewBox(mesh.SymmetricBox, 2, 2, 2)
	if err := (Config{Mesh: m, Dt: -1}).Validate(); err == nil {
		t.Error("negative dt accepted")
	}
	if err := (Config{Mesh: m}).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNSSerialAccuracy(t *testing.T) {
	m, err := mesh.NewBox(mesh.SymmetricBox, 6, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	runRanks(t, 1, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 3})
		if err != nil {
			return err
		}
		// Velocity scale is ~1.9 (max of |u|); demand a few percent.
		if res.VelMaxErr > 0.15 {
			return fmt.Errorf("velocity max error %v too large", res.VelMaxErr)
		}
		if res.VelL2Err > 0.1 {
			return fmt.Errorf("velocity L2 error %v too large", res.VelL2Err)
		}
		if res.PresL2Err > 0.5 {
			return fmt.Errorf("pressure L2 error %v too large", res.PresL2Err)
		}
		if len(res.StepTimes) != 3 {
			return fmt.Errorf("expected 3 step records, got %d", len(res.StepTimes))
		}
		for k, st := range res.StepTimes {
			if st.Phase(vclock.PhaseAssembly) <= 0 || st.Phase(vclock.PhasePrecond) <= 0 ||
				st.Phase(vclock.PhaseSolve) <= 0 {
				return fmt.Errorf("step %d has empty phase: %+v", k, st)
			}
		}
		for k := range res.VelIters {
			if res.VelIters[k] < 3 || res.PresIters[k] < 1 {
				return fmt.Errorf("implausible iteration counts at step %d: %d/%d",
					k, res.VelIters[k], res.PresIters[k])
			}
		}
		return nil
	})
}

func TestNSSpatialConvergence(t *testing.T) {
	errs := map[int]float64{}
	for _, nn := range []int{3, 6} {
		m, _ := mesh.NewBox(mesh.SymmetricBox, nn, nn, nn)
		runRanks(t, 1, func(r *mp.Rank) error {
			res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2, Dt: 0.001})
			if err != nil {
				return err
			}
			errs[nn] = res.VelL2Err
			return nil
		})
	}
	if ratio := errs[3] / errs[6]; ratio < 2 {
		t.Fatalf("velocity L2 convergence ratio %v (errors %v); want ≥ 2", ratio, errs)
	}
}

func TestNSParallelMatchesSerial(t *testing.T) {
	m, _ := mesh.NewBox(mesh.SymmetricBox, 4, 4, 4)
	var serial, par *Result
	runRanks(t, 1, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2})
		serial = res
		return err
	})
	runRanks(t, 8, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{2, 2, 2}, Steps: 2})
		if r.ID() == 0 {
			par = res
		}
		return err
	})
	// Discretisation error dominates; the runs must agree to solver
	// tolerance levels, far below the discretisation error itself.
	if math.Abs(serial.VelL2Err-par.VelL2Err) > 1e-4*(1+serial.VelL2Err) {
		t.Fatalf("serial %v vs parallel %v velocity L2 error", serial.VelL2Err, par.VelL2Err)
	}
}

func TestNSMoreExpensiveThanItsParts(t *testing.T) {
	// The NS step must charge substantially more virtual compute than an RD
	// step would: at least 3 velocity solves + pressure. Sanity-check that
	// solve-phase virtual time dominates and is positive on a realistic
	// fabric.
	m, _ := mesh.NewBox(mesh.SymmetricBox, 4, 4, 4)
	topo, _ := mp.BlockTopology(8, 4)
	fab, _ := netmodel.NewFabric(netmodel.GigE, topo.NNodes())
	w, _ := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 2e9, BytesPerSec: 4e9})
	err := w.Run(func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{2, 2, 2}, Steps: 2})
		if err != nil {
			return err
		}
		for _, st := range res.StepTimes {
			if st.Phase(vclock.PhaseSolve) <= st.Phase(vclock.PhasePrecond)/10 {
				return fmt.Errorf("solve phase implausibly small: %+v", st)
			}
			var comm float64
			for _, p := range vclock.Phases {
				comm += st.Comm[p]
			}
			if comm <= 0 {
				return fmt.Errorf("no communication charged")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNSGMRESVelocitySolver(t *testing.T) {
	m, _ := mesh.NewBox(mesh.SymmetricBox, 4, 4, 4)
	var bicg, gmres *Result
	runRanks(t, 1, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2})
		bicg = res
		return err
	})
	runRanks(t, 1, func(r *mp.Rank) error {
		res, err := Run(r, Config{Mesh: m, Grid: [3]int{1, 1, 1}, Steps: 2,
			VelocitySolver: "gmres"})
		gmres = res
		return err
	})
	// Both solvers must reach the same discrete solution (same systems,
	// tolerance-level agreement), so the final errors essentially coincide.
	if math.Abs(bicg.VelL2Err-gmres.VelL2Err) > 1e-3*(1+bicg.VelL2Err) {
		t.Fatalf("BiCGStab error %v vs GMRES error %v", bicg.VelL2Err, gmres.VelL2Err)
	}
}

func TestNSVelocitySolverValidation(t *testing.T) {
	m, _ := mesh.NewBox(mesh.SymmetricBox, 2, 2, 2)
	if err := (Config{Mesh: m, VelocitySolver: "sor"}).Validate(); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

// TestConstantOperatorsSharedPerClass runs nse on 4³ blocks. Each operator
// Run freezes — mass, pressure (after its boundary elimination) and the
// three gradients, in that order — must come out as exactly 27 value arrays
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
	m, _ := mesh.NewBox(mesh.SymmetricBox, 8, 8, 8)
	runRanks(t, nranks, func(r *mp.Rank) error {
		_, err := Run(r, Config{Mesh: m, Grid: [3]int{4, 4, 4}, Steps: 1})
		return err
	})
	names := []string{"mass", "pressure", "gradient x", "gradient y", "gradient z"}
	arrays := make([]map[*float64]bool, len(names))
	for k := range arrays {
		arrays[k] = map[*float64]bool{}
	}
	for id, rs := range ops {
		if len(rs) != len(names) {
			t.Fatalf("rank %d froze %d operators, want %d (%v)", id, len(rs), len(names), names)
		}
		for k, op := range rs {
			a := op.dm.Local()
			for i, v := range a.Val {
				if math.Float64bits(v) != math.Float64bits(op.assembled[i]) {
					t.Fatalf("rank %d: %s Val[%d] = %v after the run, assembled %v", id, names[k], i, v, op.assembled[i])
				}
			}
			arrays[k][&a.Val[0]] = true
		}
	}
	for k, name := range names {
		if len(arrays[k]) != 27 {
			t.Errorf("64 ranks hold %d %s value arrays, want 27 (one per position class)", len(arrays[k]), name)
		}
	}
}

package nse

import (
	"fmt"

	"heterohpc/internal/fem"
	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// Config describes one Navier–Stokes run on the Ethier–Steinman benchmark.
type Config struct {
	// Mesh is the global mesh (typically of mesh.SymmetricBox).
	Mesh *mesh.Mesh
	// Grid is the block decomposition; its product must equal the world size.
	Grid [3]int
	// T0 is the initial time.
	T0 float64
	// Dt is the BDF2 step size.
	Dt float64
	// Steps is the number of BDF2 steps.
	Steps int
	// Tol is the linear-solver relative tolerance (default 1e-8).
	Tol float64
	// Precond selects the preconditioner ("ilu0" default, "jacobi", "sgs",
	// "none").
	Precond string
	// MaxIter caps linear iterations per solve (default 600).
	MaxIter int
	// Checkpoint, if non-nil, is invoked after every completed BDF2 step
	// with a snapshot of the solver state (mirrors rd.Config.Checkpoint so
	// Navier–Stokes runs participate in checkpoint-restart). The callback
	// runs outside the measured phases.
	//
	// The State's U1/U2/P are the loop's own velocity and pressure vectors,
	// valid only until the callback returns: serialise before returning,
	// and neither write nor keep the slices.
	Checkpoint func(State) error
	// Resume, if non-nil, restarts the time loop from a saved state instead
	// of the exact-solution initialisation. The state must come from a run
	// with identical mesh, grid and time stepping.
	Resume *State
}

// State is a restartable snapshot of the projection time loop. When
// delivered through Config.Checkpoint the vectors are the loop's own;
// serialise before returning (see there). A State passed to Config.Resume
// is only read during startup and never retained.
type State struct {
	// StepsDone counts completed BDF2 steps.
	StepsDone int
	// Time is the PDE time of U1 and P (the last completed step).
	Time float64
	// U1 and U2 are the owned velocity components of u^{n-1} and u^{n-2}.
	U1, U2 [3][]float64
	// P is the owned pressure at the last completed step.
	P []float64
}

func (c Config) withDefaults() Config {
	if c.Dt == 0 {
		c.Dt = 0.002
	}
	if c.Steps == 0 {
		c.Steps = 4
	}
	if c.Tol == 0 {
		c.Tol = 1e-8
	}
	if c.Precond == "" {
		c.Precond = "ilu0"
	}
	if c.MaxIter == 0 {
		c.MaxIter = 600
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Mesh == nil {
		return fmt.Errorf("nse: nil mesh")
	}
	if c.Dt <= 0 || c.Steps < 1 {
		return fmt.Errorf("nse: bad time stepping dt=%v steps=%d", c.Dt, c.Steps)
	}
	return nil
}

// Result is one rank's view of a completed run.
type Result struct {
	// StepTimes[k] is this rank's phase breakdown for BDF2 step k.
	StepTimes []vclock.PhaseTimes
	// VelIters[k] sums the BiCGStab iterations of the three velocity solves
	// at step k; PresIters[k] is the pressure CG count.
	VelIters  []int
	PresIters []int
	// VelMaxErr and VelL2Err are global errors of the velocity (max over
	// components) at the final time; PresL2Err is the pressure error.
	VelMaxErr, VelL2Err, PresL2Err float64
	// NOwned is this rank's owned dof count per scalar field.
	NOwned int
	// FinalTime is the PDE time reached.
	FinalTime float64
	// OwnedIDs lists this rank's owned global vertex ids; Velocity holds
	// the final velocity components and Pressure the final pressure at them
	// (for visualisation export — the paper's Figure 2).
	OwnedIDs []int
	Velocity [3][]float64
	Pressure []float64
}

// freeze shares the values of an operator Run never writes again with the
// rank's class-mates (sparse.DistMatrix.Freeze); a test wraps it to see the
// operators Run freezes.
var freeze = (*sparse.DistMatrix).Freeze

// Run executes the Navier–Stokes solver as the SPMD body of rank r.
func Run(r *mp.Rank, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clk := r.Clock()
	clk.SetPhase(vclock.PhaseOther)
	rec := r.Obs()

	s, err := fem.NewSpaceBlock(r, cfg.Mesh, cfg.Grid[0], cfg.Grid[1], cfg.Grid[2], 2000)
	if err != nil {
		return nil, err
	}
	n := s.NOwned()
	bdf := 3 / (2 * cfg.Dt)

	// Constant operators: mass, pressure Laplacian, gradient blocks. All six
	// operators are built from the space's element ids, so the later ones
	// adopt the first one's pattern and refill plan. The constant ones are
	// frozen after their last write, so class-mates hold one copy of each.
	massDM, err := s.NewMatrix(func(e int, out *[8][8]float64, ch sparse.Charger) { s.El.Mass(1, out, ch) }, 2100, nil)
	if err != nil {
		return nil, err
	}
	freeze(massDM)

	// The pressure, gradient and velocity operators couple the same element
	// stencil as the mass matrix, so their ghost-column sets coincide and
	// they can share its importer instead of each re-running the importer
	// handshake (the build falls back to a private importer if the
	// structures ever diverge).
	presDM, err := s.NewMatrix(func(e int, out *[8][8]float64, ch sparse.Charger) { s.El.Stiffness(1, out, ch) }, 2200, massDM)
	if err != nil {
		return nil, err
	}
	presBC := presDM.NewDirichlet(s.IsBoundary)
	freeze(presDM)
	presPC, err := krylov.NewPrecond(cfg.Precond, presDM)
	if err != nil {
		return nil, fmt.Errorf("nse: %w", err)
	}
	if err := presPC.Setup(); err != nil {
		return nil, err
	}

	grad := make([]*sparse.DistMatrix, 3)
	for d := 0; d < 3; d++ {
		grad[d], err = s.NewMatrix(func(e int, out *[8][8]float64, ch sparse.Charger) { s.El.Gradient(d, out, ch) }, 2300+100*d, massDM)
		if err != nil {
			return nil, err
		}
		freeze(grad[d])
	}

	// Lumped mass (row sums of M = ∫N_a) for the velocity correction.
	mL := make([]float64, n)
	s.AssembleVector(mL, func(e int, out *[8]float64) {
		s.El.Load(func(x, y, z float64) float64 { return 1 }, s.ElemCorner(e), out, r)
	})

	// Velocity operator: (3/2Δt)·M + ν·K + C(w); values refilled per step.
	// The convecting field w = 2u^{n-1} − u^{n-2} is evaluated per element at
	// the centroid from nodal patch values (ghosts imported each step).
	patchW := [3][]float64{}
	for d := 0; d < 3; d++ {
		patchW[d] = make([]float64, s.NPatch())
	}
	// The element callback reads the convecting field from patchW, which is
	// refreshed in place each step, so one hoisted closure serves every
	// reassembly without per-step allocation.
	velElem := func(e int, out *[8][8]float64, ch sparse.Charger) {
		vs := s.M.ElemVerts(e)
		var w [3]float64
		for _, gv := range vs {
			lv := s.L.G2L(gv)
			for d := 0; d < 3; d++ {
				w[d] += patchW[d][lv]
			}
		}
		for d := 0; d < 3; d++ {
			w[d] /= 8
		}
		var tmp [8][8]float64
		s.El.Mass(bdf, out, ch)
		s.El.Stiffness(nu, &tmp, ch)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				out[a][b] += tmp[a][b]
			}
		}
		s.El.Convection(w, &tmp, ch)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				out[a][b] += tmp[a][b]
			}
		}
	}
	velDM, err := s.NewMatrix(velElem, 2600, massDM)
	if err != nil {
		return nil, err
	}
	velPC, err := krylov.NewPrecond(cfg.Precond, velDM)
	if err != nil {
		return nil, fmt.Errorf("nse: %w", err)
	}

	// History from the exact solution at t0 and t0+Δt, or from a
	// checkpointed state.
	var uPrev1, uPrev2 [3][]float64
	p := make([]float64, n)
	startStep := 0
	if cfg.Resume != nil {
		st := cfg.Resume
		if st.StepsDone < 0 || st.StepsDone >= cfg.Steps {
			return nil, fmt.Errorf("nse: resume at step %d of %d", st.StepsDone, cfg.Steps)
		}
		if len(st.P) != n {
			return nil, fmt.Errorf("nse: resume state has %d pressure dofs, rank owns %d", len(st.P), n)
		}
		for d := 0; d < 3; d++ {
			if len(st.U1[d]) != n || len(st.U2[d]) != n {
				return nil, fmt.Errorf("nse: resume state has %d/%d dofs in component %d, rank owns %d",
					len(st.U1[d]), len(st.U2[d]), d, n)
			}
			uPrev1[d] = append([]float64(nil), st.U1[d]...)
			uPrev2[d] = append([]float64(nil), st.U2[d]...)
		}
		copy(p, st.P)
		startStep = st.StepsDone
	} else {
		for d := 0; d < 3; d++ {
			uPrev2[d] = make([]float64, n)
			uPrev1[d] = make([]float64, n)
			comp := Component(d)
			s.Interpolate(func(x, y, z float64) float64 { return comp(x, y, z, cfg.T0) }, uPrev2[d])
			s.Interpolate(func(x, y, z float64) float64 { return comp(x, y, z, cfg.T0+cfg.Dt) }, uPrev1[d])
		}
		s.Interpolate(func(x, y, z float64) float64 { return ExactPressure(x, y, z, cfg.T0+cfg.Dt) }, p)
	}

	var uStar [3][]float64
	for d := 0; d < 3; d++ {
		uStar[d] = make([]float64, n)
	}
	rhs := make([]float64, n)
	hist := make([]float64, n)
	gp := make([]float64, n)
	phi := make([]float64, n)
	div := make([]float64, n)
	var rhss [3][]float64
	for d := 0; d < 3; d++ {
		rhss[d] = make([]float64, n)
	}
	work := &krylov.Workspace{}

	// Boundary-value closures are hoisted out of the loop: the captured
	// component/time variables are retargeted per step instead of closing
	// over fresh ones, keeping the steady state allocation-free.
	comps := [3]func(x, y, z, t float64) float64{Component(0), Component(1), Component(2)}
	var bcComp func(x, y, z, t float64) float64
	var bcT float64
	velBoundary := func(v int) float64 {
		x, y, z := s.M.VertexCoord(v)
		return bcComp(x, y, z, bcT)
	}
	var presT, presTPrev float64
	presBoundary := func(v int) float64 {
		x, y, z := s.M.VertexCoord(v)
		return ExactPressure(x, y, z, presT) - ExactPressure(x, y, z, presTPrev)
	}
	// The velocity eliminator is persistent; built lazily inside the first
	// step so its scan charge lands in that step's assembly phase exactly
	// as the old per-step construction did, then Recompute refreshes it.
	var velBC *sparse.Dirichlet

	res := &Result{
		NOwned:    n,
		StepTimes: make([]vclock.PhaseTimes, 0, cfg.Steps-startStep),
		VelIters:  make([]int, 0, cfg.Steps-startStep),
		PresIters: make([]int, 0, cfg.Steps-startStep),
	}
	tPrev := cfg.T0 + cfg.Dt
	if cfg.Resume != nil {
		tPrev = cfg.Resume.Time
	}

	for step := startStep; step < cfg.Steps; step++ {
		t := cfg.T0 + float64(step+2)*cfg.Dt
		snap := clk.Snapshot()

		// Phase (ii): assembly. Import the extrapolated convecting field,
		// reassemble the velocity operator, build the three right-hand sides.
		clk.SetPhase(vclock.PhaseAssembly)
		for d := 0; d < 3; d++ {
			for i := 0; i < n; i++ {
				patchW[d][i] = 2*uPrev1[d][i] - uPrev2[d][i]
			}
			r.ChargeCompute(2*float64(n), 24*float64(n))
			s.PatchImporter().Exchange(patchW[d])
		}
		// Fixed structure: reassembly recomputes the values only.
		s.Refill(velDM, velElem)
		if velBC == nil {
			velBC = velDM.NewDirichlet(s.IsBoundary)
		} else {
			velBC.Recompute(s.IsBoundary)
		}

		bcT = t
		for d := 0; d < 3; d++ {
			for i := 0; i < n; i++ {
				hist[i] = bdf * (4*uPrev1[d][i] - uPrev2[d][i]) / 3
			}
			r.ChargeCompute(3*float64(n), 24*float64(n))
			massDM.Apply(hist, rhss[d])
			grad[d].Apply(p, gp)
			sparse.Axpy(n, -1, gp, rhss[d], r)
			bcComp = comps[d]
			velBC.EliminateRHS(velBoundary, rhss[d])
		}

		// Phase (iiia): preconditioner for the velocity operator.
		clk.SetPhase(vclock.PhasePrecond)
		if err := velPC.Setup(); err != nil {
			return nil, fmt.Errorf("nse: step %d: %w", step, err)
		}

		// Phase (iiib): three BiCGStab velocity solves, one CG pressure
		// solve, projection update.
		clk.SetPhase(vclock.PhaseSolve)
		velIters := 0
		for d := 0; d < 3; d++ {
			sparse.CopyN(n, uStar[d], uPrev1[d], r)
			sol, err := krylov.BiCGStab(velDM, velPC, rhss[d], uStar[d], krylov.Options{
				Tol: cfg.Tol, MaxIter: cfg.MaxIter, Work: work, Obs: rec,
			})
			if err != nil {
				return nil, fmt.Errorf("nse: step %d velocity %d: %w", step, d, err)
			}
			if !sol.Converged {
				return nil, fmt.Errorf("nse: step %d velocity %d stalled at %v after %d iters",
					step, d, sol.Residual, sol.Iterations)
			}
			velIters += sol.Iterations
		}

		// Pressure Poisson: K·φ = −(3/2Δt)·div(u*), φ = Δp_exact on the
		// boundary (the exact increment pins the pressure constant).
		for i := 0; i < n; i++ {
			rhs[i] = 0
		}
		for d := 0; d < 3; d++ {
			grad[d].Apply(uStar[d], div)
			sparse.Axpy(n, -bdf, div, rhs, r)
		}
		presT, presTPrev = t, tPrev
		presBC.EliminateRHS(presBoundary, rhs)
		for i := 0; i < n; i++ {
			phi[i] = 0
		}
		sol, err := krylov.CG(presDM, presPC, rhs, phi, krylov.Options{
			Tol: cfg.Tol, MaxIter: cfg.MaxIter, Work: work, Obs: rec,
		})
		if err != nil {
			return nil, fmt.Errorf("nse: step %d pressure: %w", step, err)
		}
		if !sol.Converged {
			return nil, fmt.Errorf("nse: step %d pressure stalled at %v after %d iters",
				step, sol.Residual, sol.Iterations)
		}

		// Projection update: uⁿ = u* − (2Δt/3)·M_L⁻¹·∇φ; pⁿ = pⁿ⁻¹ + φ;
		// boundary dofs re-pinned to the exact velocity.
		for d := 0; d < 3; d++ {
			grad[d].Apply(phi, gp)
			for i := 0; i < n; i++ {
				uStar[d][i] -= gp[i] / (bdf * mL[i])
			}
			r.ChargeCompute(2*float64(n), 24*float64(n))
			bcComp = comps[d]
			velBC.SetSolution(velBoundary, uStar[d])
		}
		sparse.Axpy(n, 1, phi, p, r)
		clk.SetPhase(vclock.PhaseOther)

		res.StepTimes = append(res.StepTimes, clk.Since(snap))
		res.VelIters = append(res.VelIters, velIters)
		res.PresIters = append(res.PresIters, sol.Iterations)
		for d := 0; d < 3; d++ {
			uPrev2[d], uPrev1[d], uStar[d] = uPrev1[d], uStar[d], uPrev2[d]
		}
		tPrev = t
		res.FinalTime = t
		rec.Step(step + 1)
		rec.StepHalo(step + 1)

		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint(State{StepsDone: step + 1, Time: t, U1: uPrev1, U2: uPrev2, P: p}); err != nil {
				return nil, fmt.Errorf("nse: checkpoint after step %d: %w", step, err)
			}
			rec.Checkpoint("ckpt-write", step+1, 56*int64(n))
		}
	}

	// Global errors vs. the exact solution at the final time.
	for d := 0; d < 3; d++ {
		comp := Component(d)
		exact := func(x, y, z float64) float64 { return comp(x, y, z, res.FinalTime) }
		if e := s.MaxNodalError(uPrev1[d], exact); e > res.VelMaxErr {
			res.VelMaxErr = e
		}
		if e := s.L2NodalError(uPrev1[d], exact); e > res.VelL2Err {
			res.VelL2Err = e
		}
	}
	res.PresL2Err = s.L2NodalError(p, func(x, y, z float64) float64 {
		return ExactPressure(x, y, z, res.FinalTime)
	})
	res.OwnedIDs = append([]int(nil), s.RowMap.Owned...)
	for d := 0; d < 3; d++ {
		res.Velocity[d] = append([]float64(nil), uPrev1[d][:n]...)
	}
	res.Pressure = append([]float64(nil), p[:n]...)
	return res, nil
}

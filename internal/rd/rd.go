// Package rd implements the paper's first test case (§IV-A): the 3-D
// reaction–diffusion equation
//
//	∂u/∂t − (1/t²)·Δu − (2/t)·u = −6
//
// on a cube, with boundary and initial conditions chosen so that the exact
// solution is u = t²·(x₁²+x₂²+x₃²). The solver mirrors the paper's program
// organisation (§IV-C): BDF2 time stepping; per step an assembly phase (ii),
// a preconditioner-construction phase (iiia) and a preconditioned iterative
// solve (iiib), each instrumented separately on the virtual clock. The exact
// solution "is used for checking the mathematical correctness of the code
// execution".
package rd

import (
	"fmt"

	"heterohpc/internal/fem"
	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

// Exact returns the manufactured solution u = t²·(x²+y²+z²).
func Exact(x, y, z, t float64) float64 { return t * t * (x*x + y*y + z*z) }

// Source is the constant right-hand side f = −6 of the equation.
const Source = -6.0

// Config describes one RD run.
type Config struct {
	// Mesh is the global mesh (the harness sizes it as (n·p)³ for weak
	// scaling with p³ ranks of n³ elements each).
	Mesh *mesh.Mesh
	// Grid is the block decomposition (px,py,pz); px·py·pz must equal the
	// communicator size.
	Grid [3]int
	// T0 is the initial time (must be > 0: the PDE degenerates at t = 0).
	T0 float64
	// Dt is the BDF2 time-step size.
	Dt float64
	// Steps is the number of BDF2 steps to run.
	Steps int
	// Tol is the CG relative tolerance (default 1e-8).
	Tol float64
	// Precond selects the preconditioner: "ilu0" (default), "jacobi",
	// "sgs" or "none".
	Precond string
	// MaxIter caps CG iterations (default 500).
	MaxIter int
	// Checkpoint, if non-nil, is invoked after every completed BDF2 step
	// with a snapshot of the solver state (the "automatic checkpointing"
	// service the paper names as further EC2 conditioning, §VI-D). The
	// callback runs outside the measured phases.
	//
	// The State's U1/U2 are the loop's own history vectors, valid only
	// until the callback returns: serialise before returning, and neither
	// write nor keep the slices.
	Checkpoint func(State) error
	// Resume, if non-nil, restarts the time loop from a saved state instead
	// of the exact-solution initialisation. The state must come from a run
	// with identical mesh, grid and time stepping.
	Resume *State
}

// State is a restartable snapshot of the BDF2 time loop. When delivered
// through Config.Checkpoint the vectors are the loop's own; serialise
// before returning (see there). A State passed to Config.Resume is only
// read during startup and never retained.
type State struct {
	// StepsDone counts completed BDF2 steps.
	StepsDone int
	// Time is the PDE time of U1.
	Time float64
	// U1 and U2 are the owned values of u^{n-1} and u^{n-2}.
	U1, U2 []float64
}

func (c Config) withDefaults() Config {
	if c.T0 == 0 {
		c.T0 = 1
	}
	if c.Dt == 0 {
		c.Dt = 0.05
	}
	if c.Steps == 0 {
		c.Steps = 6
	}
	if c.Tol == 0 {
		c.Tol = 1e-8
	}
	if c.Precond == "" {
		c.Precond = "ilu0"
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Mesh == nil {
		return fmt.Errorf("rd: nil mesh")
	}
	if c.T0 <= 0 {
		return fmt.Errorf("rd: T0 %v must be positive (equation degenerates at t=0)", c.T0)
	}
	if c.Dt <= 0 || c.Steps < 1 {
		return fmt.Errorf("rd: bad time stepping dt=%v steps=%d", c.Dt, c.Steps)
	}
	// SPD requirement: 3/(2Δt) must dominate the reaction term 2/t.
	if 3/(2*c.Dt) <= 2/c.T0 {
		return fmt.Errorf("rd: dt %v too large for SPD system at t0 %v", c.Dt, c.T0)
	}
	return nil
}

// Result is one rank's view of a completed run. StepTimes are this rank's
// per-step phase breakdowns; the error norms are global (identical on all
// ranks).
type Result struct {
	// StepTimes[k] is the virtual-time breakdown of BDF2 step k on this rank.
	StepTimes []vclock.PhaseTimes
	// SolveIters[k] is the CG iteration count of step k.
	SolveIters []int
	// MaxErr and L2Err are the global nodal errors vs. the exact solution at
	// the final time.
	MaxErr, L2Err float64
	// NOwned is this rank's owned dof count.
	NOwned int
	// FinalTime is the PDE time reached.
	FinalTime float64
	// OwnedIDs and Solution carry this rank's owned global vertex ids and
	// the final solution values at them (for visualisation export).
	OwnedIDs []int
	Solution []float64
}

// freeze shares the values of an operator Run never writes again with the
// rank's class-mates (sparse.DistMatrix.Freeze); a test wraps it to see the
// operators Run freezes.
var freeze = (*sparse.DistMatrix).Freeze

// Run executes the RD solver as the SPMD body of rank r. All ranks of the
// world must call Run with identical configuration.
func Run(r *mp.Rank, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clk := r.Clock()
	clk.SetPhase(vclock.PhaseOther)
	rec := r.Obs()

	// --- setup (paper step i): spaces, maps, symbolic structures ---
	s, err := fem.NewSpaceBlock(r, cfg.Mesh, cfg.Grid[0], cfg.Grid[1], cfg.Grid[2], 1000)
	if err != nil {
		return nil, err
	}
	n := s.NOwned()

	// Mass matrix (constant in time, assembled once for the BDF2 history
	// term M·(4u¹−u²)/(2Δt), so frozen: class-mates hold one copy). Both
	// operators are built from the space's element ids, so the system matrix
	// adopts the mass matrix's pattern and refill plan.
	massDM, err := s.NewMatrix(func(e int, out *[8][8]float64, ch sparse.Charger) {
		s.El.Mass(1, out, ch)
	}, 1100, nil)
	if err != nil {
		return nil, err
	}
	freeze(massDM)

	// System matrix structure (same sparsity as mass; values refilled each
	// step because the diffusion and reaction coefficients depend on t).
	// The element callback is hoisted out of the time loop: it captures the
	// mutable coefficients instead of closing over t per step, so steady-
	// state reassembly allocates no closures.
	var sysAlpha, sysKappa float64
	sysElem := func(e int, out *[8][8]float64, ch sparse.Charger) {
		var ke [8][8]float64
		s.El.Mass(sysAlpha, out, ch)
		s.El.Stiffness(sysKappa, &ke, ch)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				out[a][b] += ke[a][b]
			}
		}
	}
	setSysTime := func(t float64) {
		sysAlpha = 3/(2*cfg.Dt) - 2/t // mass coefficient
		sysKappa = 1 / (t * t)        // diffusion coefficient
	}
	setSysTime(cfg.T0 + 2*cfg.Dt)
	sysDM, err := s.NewMatrix(sysElem, 1200, nil)
	if err != nil {
		return nil, err
	}
	// The boundary eliminator and boundary-value closure are likewise
	// persistent. The eliminator is built inside the first step (its scan
	// charges virtual compute, which must land in that step's assembly
	// phase exactly as the old per-step construction did); Recompute then
	// refreshes the eliminated couplings after each refill, and
	// bcTime retargets the closure per step.
	var dirichlet *sparse.Dirichlet
	var bcTime float64
	boundary := func(v int) float64 {
		x, y, z := s.M.VertexCoord(v)
		return Exact(x, y, z, bcTime)
	}
	precond, err := krylov.NewPrecond(cfg.Precond, sysDM)
	if err != nil {
		return nil, fmt.Errorf("rd: %w", err)
	}

	// Constant source vector ∫(−6)·N_a, assembled once.
	load := make([]float64, n)
	s.AssembleVector(load, func(e int, out *[8]float64) {
		s.El.Load(func(x, y, z float64) float64 { return Source }, s.ElemCorner(e), out, r)
	})

	// BDF2 history from the exact solution at t0 and t0+Δt, or from a
	// checkpointed state.
	uPrev2 := make([]float64, n) // u^{n-2}
	uPrev1 := make([]float64, n) // u^{n-1}
	startStep := 0
	if cfg.Resume != nil {
		if len(cfg.Resume.U1) != n || len(cfg.Resume.U2) != n {
			return nil, fmt.Errorf("rd: resume state has %d/%d dofs, rank owns %d",
				len(cfg.Resume.U1), len(cfg.Resume.U2), n)
		}
		if cfg.Resume.StepsDone < 0 || cfg.Resume.StepsDone >= cfg.Steps {
			return nil, fmt.Errorf("rd: resume at step %d of %d", cfg.Resume.StepsDone, cfg.Steps)
		}
		copy(uPrev1, cfg.Resume.U1)
		copy(uPrev2, cfg.Resume.U2)
		startStep = cfg.Resume.StepsDone
	} else {
		s.Interpolate(func(x, y, z float64) float64 { return Exact(x, y, z, cfg.T0) }, uPrev2)
		s.Interpolate(func(x, y, z float64) float64 { return Exact(x, y, z, cfg.T0+cfg.Dt) }, uPrev1)
	}

	u := make([]float64, n)
	hist := make([]float64, n)
	rhs := make([]float64, n)
	work := &krylov.Workspace{}
	res := &Result{
		NOwned:     n,
		StepTimes:  make([]vclock.PhaseTimes, 0, cfg.Steps-startStep),
		SolveIters: make([]int, 0, cfg.Steps-startStep),
	}

	// --- time loop (paper steps ii–iii per iteration) ---
	for step := startStep; step < cfg.Steps; step++ {
		t := cfg.T0 + float64(step+2)*cfg.Dt
		snap := clk.Snapshot()

		// Phase (ii): assembly of the system matrix and right-hand side.
		// The structure is fixed; reassembly only recomputes the values.
		clk.SetPhase(vclock.PhaseAssembly)
		setSysTime(t)
		s.Refill(sysDM, sysElem)
		// hist = (4u^{n-1} − u^{n-2}) / (2Δt)
		for i := 0; i < n; i++ {
			hist[i] = (4*uPrev1[i] - uPrev2[i]) / (2 * cfg.Dt)
		}
		r.ChargeCompute(3*float64(n), 24*float64(n))
		massDM.Apply(hist, rhs)
		sparse.Axpy(n, 1, load, rhs, r)
		bcTime = t
		if dirichlet == nil {
			dirichlet = sysDM.NewDirichlet(s.IsBoundary)
		} else {
			dirichlet.Recompute(s.IsBoundary)
		}
		dirichlet.EliminateRHS(boundary, rhs)

		// Phase (iiia): preconditioner computation.
		clk.SetPhase(vclock.PhasePrecond)
		if err := precond.Setup(); err != nil {
			return nil, fmt.Errorf("rd: step %d: %w", step, err)
		}

		// Phase (iiib): preconditioned CG solve, warm-started from u^{n-1}.
		clk.SetPhase(vclock.PhaseSolve)
		sparse.CopyN(n, u, uPrev1, r)
		sol, err := krylov.CG(sysDM, precond, rhs, u, krylov.Options{
			Tol: cfg.Tol, MaxIter: cfg.MaxIter, Work: work, Obs: rec,
		})
		if err != nil {
			return nil, fmt.Errorf("rd: step %d: %w", step, err)
		}
		if !sol.Converged {
			return nil, fmt.Errorf("rd: step %d: CG stalled at residual %v after %d iterations",
				step, sol.Residual, sol.Iterations)
		}
		clk.SetPhase(vclock.PhaseOther)

		res.StepTimes = append(res.StepTimes, clk.Since(snap))
		res.SolveIters = append(res.SolveIters, sol.Iterations)
		uPrev2, uPrev1, u = uPrev1, u, uPrev2
		res.FinalTime = t
		rec.Step(step + 1)
		rec.StepHalo(step + 1)

		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint(State{StepsDone: step + 1, Time: t, U1: uPrev1, U2: uPrev2}); err != nil {
				return nil, fmt.Errorf("rd: checkpoint after step %d: %w", step, err)
			}
			rec.Checkpoint("ckpt-write", step+1, 16*int64(n))
		}
	}

	exactFinal := func(x, y, z float64) float64 { return Exact(x, y, z, res.FinalTime) }
	res.MaxErr = s.MaxNodalError(uPrev1, exactFinal)
	res.L2Err = s.L2NodalError(uPrev1, exactFinal)
	res.OwnedIDs = append([]int(nil), s.RowMap.Owned...)
	res.Solution = append([]float64(nil), uPrev1[:n]...)
	return res, nil
}

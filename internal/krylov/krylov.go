// Package krylov implements the preconditioned iterative solvers that
// Trilinos (AztecOO) and Ifpack provided in the paper's stack: conjugate
// gradients for the symmetric positive-definite systems of the
// reaction–diffusion application, BiCGStab and restarted GMRES for the
// nonsymmetric velocity systems of the Navier–Stokes application, and the
// paper's "iterative preconditioned methods" (§IV-C): Jacobi, symmetric
// Gauss–Seidel and ILU(0) applied block-locally per rank (additive Schwarz
// with zero overlap).
//
// Solvers operate on the System interface, so the same code runs serially
// on a CSR matrix and distributed on a sparse.DistMatrix; all global
// reductions go through System.AllSum and all flop counts through the
// embedded Charger, which is how solver time lands on the virtual clock.
package krylov

import (
	"errors"
	"fmt"
	"math"

	"heterohpc/internal/obs"
	"heterohpc/internal/sparse"
)

// System is a linear operator over distributed owned-length vectors.
type System interface {
	// Apply computes y = A·x for owned-length x, y.
	Apply(x, y []float64)
	// NOwned returns the local (owned) vector length.
	NOwned() int
	// AllSum globally sums a scalar across ranks (identity when serial).
	AllSum(v float64) float64
	sparse.Charger
}

// SerialSystem adapts a square CSR matrix to System for single-process use.
type SerialSystem struct {
	A *sparse.CSR
	// Ch receives compute charges; nil means NopCharger.
	Ch sparse.Charger
}

func (s SerialSystem) charger() sparse.Charger {
	if s.Ch != nil {
		return s.Ch
	}
	return sparse.NopCharger{}
}

// Apply implements System.
func (s SerialSystem) Apply(x, y []float64) { s.A.MulVec(x, y, s.charger()) }

// NOwned implements System.
func (s SerialSystem) NOwned() int { return s.A.NRows }

// AllSum implements System.
func (s SerialSystem) AllSum(v float64) float64 { return v }

// ChargeCompute implements sparse.Charger.
func (s SerialSystem) ChargeCompute(f, b float64) { s.charger().ChargeCompute(f, b) }

// Preconditioner approximates A⁻¹. Setup (re)computes the factorisation
// from the current matrix values — the paper's phase (iiia); Apply computes
// z = M⁻¹·r — invoked inside the solve phase (iiib).
type Preconditioner interface {
	Setup() error
	Apply(r, z []float64)
}

// Options controls an iterative solve.
type Options struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖ (default 1e-8).
	Tol float64
	// MaxIter caps the iteration count (default 500).
	MaxIter int
	// Restart is the GMRES restart length (default 30).
	Restart int
	// Work supplies reusable scratch storage so repeated solves (one per
	// time step) allocate nothing in steady state. Nil means the solver
	// allocates a private workspace for the call.
	Work *Workspace
	// Obs receives one solve event (solver, iterations, final residual,
	// convergence) per call. Nil — the default — records nothing and costs
	// nothing.
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Restart <= 0 {
		o.Restart = 30
	}
	return o
}

// Result reports the outcome of an iterative solve.
type Result struct {
	Converged  bool
	Iterations int
	// Residual is the final relative residual ‖r‖/‖b‖.
	Residual float64
}

// ErrBreakdown reports a Krylov breakdown (zero inner product); the caller
// may retry with a different preconditioner or solver.
var ErrBreakdown = errors.New("krylov: breakdown")

// dot computes the global dot product of owned-length vectors.
func dot(sys System, x, y []float64) float64 {
	return sys.AllSum(sparse.DotLocal(sys.NOwned(), x, y, sys))
}

// norm2 computes the global 2-norm of an owned-length vector.
func norm2(sys System, x []float64) float64 {
	return math.Sqrt(dot(sys, x, x))
}

// CG solves A·x = b with preconditioned conjugate gradients. A must be
// symmetric positive definite and M symmetric. x holds the initial guess on
// entry and the solution on return.
func CG(sys System, M Preconditioner, b, x []float64, opt Options) (Result, error) {
	res, err := cg(sys, M, b, x, opt)
	opt.Obs.Solve("cg", res.Iterations, res.Residual, res.Converged)
	return res, err
}

func cg(sys System, M Preconditioner, b, x []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := sys.NOwned()
	if len(b) < n || len(x) < n {
		return Result{}, fmt.Errorf("krylov: vector lengths %d,%d < %d", len(b), len(x), n)
	}
	if M == nil {
		M = Identity{}
	}
	res := Result{}
	bnorm := norm2(sys, b)
	if bnorm == 0 {
		for i := 0; i < n; i++ {
			x[i] = 0
		}
		res.Converged = true
		return res, nil
	}
	vv := opt.workspace().vectors(n, 4)
	r, z, p, q := vv[0], vv[1], vv[2], vv[3]
	sys.Apply(x, r)
	for i := 0; i < n; i++ {
		r[i] = b[i] - r[i]
	}
	sys.ChargeCompute(float64(n), 24*float64(n))
	M.Apply(r, z)
	sparse.CopyN(n, p, z, sys)
	rz := dot(sys, r, z)
	for k := 0; k < opt.MaxIter; k++ {
		sys.Apply(p, q)
		pq := dot(sys, p, q)
		if pq == 0 || math.IsNaN(pq) {
			return res, fmt.Errorf("%w: pᵀAp = %v at iteration %d", ErrBreakdown, pq, k)
		}
		alpha := rz / pq
		sparse.Axpy(n, alpha, p, x, sys)
		sparse.Axpy(n, -alpha, q, r, sys)
		res.Iterations = k + 1
		rel := norm2(sys, r) / bnorm
		res.Residual = rel
		if rel < opt.Tol {
			res.Converged = true
			return res, nil
		}
		M.Apply(r, z)
		rzNew := dot(sys, r, z)
		if rz == 0 {
			return res, fmt.Errorf("%w: rᵀz = 0 at iteration %d", ErrBreakdown, k)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + float64(beta*p[i])
		}
		sys.ChargeCompute(2*float64(n), 24*float64(n))
	}
	return res, nil
}

// BiCGStab solves the (possibly nonsymmetric) system A·x = b with the
// preconditioned stabilised bi-conjugate-gradient method.
func BiCGStab(sys System, M Preconditioner, b, x []float64, opt Options) (Result, error) {
	res, err := bicgstab(sys, M, b, x, opt)
	opt.Obs.Solve("bicgstab", res.Iterations, res.Residual, res.Converged)
	return res, err
}

func bicgstab(sys System, M Preconditioner, b, x []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := sys.NOwned()
	if len(b) < n || len(x) < n {
		return Result{}, fmt.Errorf("krylov: vector lengths %d,%d < %d", len(b), len(x), n)
	}
	if M == nil {
		M = Identity{}
	}
	res := Result{}
	bnorm := norm2(sys, b)
	if bnorm == 0 {
		for i := 0; i < n; i++ {
			x[i] = 0
		}
		res.Converged = true
		return res, nil
	}
	vv := opt.workspace().vectors(n, 8)
	r, rhat, p, v, phat, shat, t, s := vv[0], vv[1], vv[2], vv[3], vv[4], vv[5], vv[6], vv[7]
	sys.Apply(x, r)
	for i := 0; i < n; i++ {
		r[i] = b[i] - r[i]
	}
	sys.ChargeCompute(float64(n), 24*float64(n))
	sparse.CopyN(n, rhat, r, sys)
	var rho, alpha, omega float64 = 1, 1, 1
	for k := 0; k < opt.MaxIter; k++ {
		rhoNew := dot(sys, rhat, r)
		if rhoNew == 0 || math.IsNaN(rhoNew) {
			return res, fmt.Errorf("%w: ρ = %v at iteration %d", ErrBreakdown, rhoNew, k)
		}
		if k == 0 {
			sparse.CopyN(n, p, r, sys)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := 0; i < n; i++ {
				p[i] = r[i] + float64(beta*(p[i]-float64(omega*v[i])))
			}
			sys.ChargeCompute(4*float64(n), 32*float64(n))
		}
		rho = rhoNew
		M.Apply(p, phat)
		sys.Apply(phat, v)
		den := dot(sys, rhat, v)
		if den == 0 {
			return res, fmt.Errorf("%w: r̂ᵀv = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha = rho / den
		for i := 0; i < n; i++ {
			s[i] = r[i] - float64(alpha*v[i])
		}
		sys.ChargeCompute(2*float64(n), 24*float64(n))
		res.Iterations = k + 1
		if rel := norm2(sys, s) / bnorm; rel < opt.Tol {
			sparse.Axpy(n, alpha, phat, x, sys)
			res.Residual = rel
			res.Converged = true
			return res, nil
		}
		M.Apply(s, shat)
		sys.Apply(shat, t)
		tt := dot(sys, t, t)
		if tt == 0 {
			return res, fmt.Errorf("%w: tᵀt = 0 at iteration %d", ErrBreakdown, k)
		}
		omega = dot(sys, t, s) / tt
		if omega == 0 {
			return res, fmt.Errorf("%w: ω = 0 at iteration %d", ErrBreakdown, k)
		}
		for i := 0; i < n; i++ {
			x[i] += float64(alpha*phat[i]) + float64(omega*shat[i])
			r[i] = s[i] - float64(omega*t[i])
		}
		sys.ChargeCompute(6*float64(n), 48*float64(n))
		rel := norm2(sys, r) / bnorm
		res.Residual = rel
		if rel < opt.Tol {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

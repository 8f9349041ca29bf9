// Package nse implements the paper's second test case (§IV-B): the 3-D
// incompressible Navier–Stokes equations on the classical Ethier–Steinman
// benchmark [21], "a popular non-trivial benchmark for CFD solvers" with an
// exact fully-3D solution. Time is discretised with BDF2 and the saddle
// point is split with an incremental pressure-correction (Chorin–Temam)
// projection: per step, three nonsymmetric convection–diffusion velocity
// solves (BiCGStab) and one pressure Poisson solve (CG) — four scalar
// fields of work and halo traffic, matching the paper's observation that
// the NS test "involves two variables" (vector velocity + pressure) and
// exchanges far more data than RD.
//
// The paper's LifeV solver used coupled P2/P1 elements; the substitution to
// Q1/Q1 projection preserves the phase structure and communication pattern
// (see DESIGN.md §2).
package nse

import "math"

// Parameters of the Ethier–Steinman solution. With ρ = μ = 1 the kinematic
// viscosity ν is 1.
const (
	aES = math.Pi / 4
	dES = math.Pi / 2
	nu  = 1.0
)

// ExactPressure returns the Ethier–Steinman pressure at (x,y,z,t).
func ExactPressure(x, y, z, t float64) float64 {
	e2 := math.Exp(-2 * nu * dES * dES * t)
	return -aES * aES / 2 * e2 *
		(math.Exp(2*aES*x) + math.Exp(2*aES*y) + math.Exp(2*aES*z) +
			2*math.Sin(aES*x+dES*y)*math.Cos(aES*z+dES*x)*math.Exp(aES*(y+z)) +
			2*math.Sin(aES*y+dES*z)*math.Cos(aES*x+dES*y)*math.Exp(aES*(z+x)) +
			2*math.Sin(aES*z+dES*x)*math.Cos(aES*y+dES*z)*math.Exp(aES*(x+y)))
}

// Component returns the d-th Ethier–Steinman velocity component (d in 0..2)
// at (x,y,z,t), one closure per component, so a caller that wants one
// component (boundary data, per component and boundary vertex and step)
// does not pay for three.
func Component(d int) func(x, y, z, t float64) float64 {
	switch d {
	case 0:
		return func(x, y, z, t float64) float64 {
			e := math.Exp(-nu * dES * dES * t)
			return -aES * (math.Exp(aES*x)*math.Sin(aES*y+dES*z) + math.Exp(aES*z)*math.Cos(aES*x+dES*y)) * e
		}
	case 1:
		return func(x, y, z, t float64) float64 {
			e := math.Exp(-nu * dES * dES * t)
			return -aES * (math.Exp(aES*y)*math.Sin(aES*z+dES*x) + math.Exp(aES*x)*math.Cos(aES*y+dES*z)) * e
		}
	default:
		return func(x, y, z, t float64) float64 {
			e := math.Exp(-nu * dES * dES * t)
			return -aES * (math.Exp(aES*z)*math.Sin(aES*x+dES*y) + math.Exp(aES*y)*math.Cos(aES*z+dES*x)) * e
		}
	}
}

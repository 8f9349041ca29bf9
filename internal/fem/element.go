// Package fem implements the finite-element layer that the LifeV library
// provided in the paper's stack: trilinear (Q1) hexahedral elements with
// Gauss quadrature, element matrices for mass, diffusion, convection and
// pressure-gradient operators, distributed assembly over a mesh.Local, and
// nodal interpolation/error evaluation against exact solutions.
//
// The paper's applications use P2 (and P2/P1) elements; Q1 elements on the
// same structured cubes preserve the phase structure (assembly →
// preconditioner → solve per BDF2 step), the communication pattern and the
// exact-solution verification workflow, which is what the reproduction
// needs (see DESIGN.md §2).
package fem

import (
	"fmt"
	"math"
)

// QuadPoint is one quadrature point on the reference cube [-1,1]³.
type QuadPoint struct {
	Xi [3]float64
	W  float64
}

// ShapeQ1 evaluates the 8 trilinear shape functions and their reference
// gradients at ξ. Local node ordering matches mesh.ElemVerts: x fastest,
// then y, then z.
//
//heterolint:allow vcharge reference-element evaluation; callers charge at operator granularity (MassMatrix etc.), and NewElement precomputes this once per space outside the metered iteration
func ShapeQ1(xi [3]float64) (n [8]float64, dn [8][3]float64) {
	signs := [2]float64{-1, 1}
	a := 0
	for kz := 0; kz < 2; kz++ {
		for ky := 0; ky < 2; ky++ {
			for kx := 0; kx < 2; kx++ {
				sx, sy, sz := signs[kx], signs[ky], signs[kz]
				fx := (1 + sx*xi[0]) / 2
				fy := (1 + sy*xi[1]) / 2
				fz := (1 + sz*xi[2]) / 2
				n[a] = fx * fy * fz
				dn[a][0] = sx / 2 * fy * fz
				dn[a][1] = fx * sy / 2 * fz
				dn[a][2] = fx * fy * sz / 2
				a++
			}
		}
	}
	return
}

// Charger mirrors sparse.Charger to avoid an import cycle concern; any
// charger (including mp.Rank) satisfies it.
type Charger interface {
	ChargeCompute(flops, bytes float64)
}

type nopCharger struct{}

func (nopCharger) ChargeCompute(float64, float64) {}

// Element holds the quadrature data of a uniform hexahedral element of size
// hx×hy×hz. Shape values at quadrature points are precomputed once. Every
// element of a uniform mesh has the same Mass, Stiffness and Gradient
// matrix, so each of these operators keeps the last matrix it integrated
// and copies it out while its argument repeats; the virtual charge is still
// issued per call (the paper's assembly phase is exactly this per-element
// work), only the host arithmetic is memoised. An Element is one rank's
// state: it is not safe for concurrent use.
type Element struct {
	Hx, Hy, Hz float64
	// Fixed-size arrays (the rule is always 2×2×2): the whole Element is
	// one allocation, which matters because every world setup builds one
	// per space.
	qp    [8]QuadPoint
	n     [8][8]float64    // shape values per qp
	dphys [8][8][3]float64 // physical gradients per qp
	jac   float64          // |J| = hx·hy·hz/8

	mass, stiff elemMemo // keyed on the coefficient's bits
	// One per direction, key unused; allocated by the first Gradient call,
	// so that a world of ranks that never take a gradient (RD at P = 1000)
	// does not carry 1.5 KB per rank for it.
	grad *[3]elemMemo
}

// elemMemo is the one-entry cache of an element operator: the matrix it
// last integrated and the bits of the coefficient it was integrated for.
type elemMemo struct {
	ok  bool
	key uint64
	mat [8][8]float64
}

// stale reports whether the memo holds no matrix for key, and if so
// re-keys and zeroes it for the caller to integrate into.
func (m *elemMemo) stale(key uint64) bool {
	if m.ok && m.key == key {
		return false
	}
	*m = elemMemo{ok: true, key: key}
	return true
}

// NewElement precomputes quadrature data for an hx×hy×hz element. The
// one-time setup per world construction is covered by vcharge's
// constructor exemption; the per-step assembly loops it feeds are charged
// by the space's assembly (NewMatrix, Refill).
func NewElement(hx, hy, hz float64) (*Element, error) {
	if hx <= 0 || hy <= 0 || hz <= 0 {
		return nil, fmt.Errorf("fem: non-positive element size %v×%v×%v", hx, hy, hz)
	}
	el := &Element{Hx: hx, Hy: hy, Hz: hz, jac: hx * hy * hz / 8}
	const g = 0.5773502691896257 // 1/sqrt(3)
	i := 0
	for _, z := range [2]float64{-g, g} {
		for _, y := range [2]float64{-g, g} {
			for _, x := range [2]float64{-g, g} {
				el.qp[i] = QuadPoint{Xi: [3]float64{x, y, z}, W: 1}
				i++
			}
		}
	}
	inv := [3]float64{2 / hx, 2 / hy, 2 / hz}
	for q, p := range el.qp {
		n, dn := ShapeQ1(p.Xi)
		for a := 0; a < 8; a++ {
			for d := 0; d < 3; d++ {
				el.dphys[q][a][d] = dn[a][d] * inv[d]
			}
		}
		el.n[q] = n
	}
	return el, nil
}

// Mass accumulates c·∫ N_a N_b into out (overwriting it).
func (el *Element) Mass(c float64, out *[8][8]float64, ch Charger) {
	if ch == nil {
		ch = nopCharger{}
	}
	m := &el.mass
	if m.stale(math.Float64bits(c)) {
		for q := range el.qp {
			w := el.qp[q].W * el.jac * c
			n := &el.n[q]
			for a := 0; a < 8; a++ {
				wa := w * n[a]
				for b := 0; b < 8; b++ {
					m.mat[a][b] += wa * n[b]
				}
			}
		}
	}
	*out = m.mat
	ch.ChargeCompute(float64(len(el.qp))*(8*8*2+8), 8*8*8)
}

// Stiffness accumulates c·∫ ∇N_a·∇N_b into out (overwriting it).
func (el *Element) Stiffness(c float64, out *[8][8]float64, ch Charger) {
	if ch == nil {
		ch = nopCharger{}
	}
	m := &el.stiff
	if m.stale(math.Float64bits(c)) {
		for q := range el.qp {
			w := el.qp[q].W * el.jac * c
			dp := &el.dphys[q]
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					m.mat[a][b] += w * (dp[a][0]*dp[b][0] + dp[a][1]*dp[b][1] + dp[a][2]*dp[b][2])
				}
			}
		}
	}
	*out = m.mat
	ch.ChargeCompute(float64(len(el.qp))*8*8*6, 8*8*8)
}

// Convection accumulates ∫ (w·∇N_b)·N_a into out (overwriting it), with w a
// constant advecting velocity over the element (evaluated at its centroid
// by the caller — the standard low-order linearisation).
func (el *Element) Convection(w [3]float64, out *[8][8]float64, ch Charger) {
	if ch == nil {
		ch = nopCharger{}
	}
	*out = [8][8]float64{}
	for q := range el.qp {
		wq := el.qp[q].W * el.jac
		n := &el.n[q]
		dp := &el.dphys[q]
		for b := 0; b < 8; b++ {
			adv := wq * (w[0]*dp[b][0] + w[1]*dp[b][1] + w[2]*dp[b][2])
			for a := 0; a < 8; a++ {
				out[a][b] += n[a] * adv
			}
		}
	}
	ch.ChargeCompute(float64(len(el.qp))*(8*6+8*8*2), 8*8*8)
}

// Gradient accumulates ∫ N_a ∂N_b/∂x_d into out (overwriting it) — the
// discrete pressure-gradient/divergence coupling block of the Navier–Stokes
// solver.
func (el *Element) Gradient(d int, out *[8][8]float64, ch Charger) {
	if ch == nil {
		ch = nopCharger{}
	}
	if d < 0 || d > 2 {
		panic(fmt.Sprintf("fem: gradient direction %d", d))
	}
	if el.grad == nil {
		el.grad = new([3]elemMemo)
	}
	m := &el.grad[d]
	if m.stale(0) {
		for q := range el.qp {
			wq := el.qp[q].W * el.jac
			n := &el.n[q]
			dp := &el.dphys[q]
			for a := 0; a < 8; a++ {
				wa := wq * n[a]
				for b := 0; b < 8; b++ {
					m.mat[a][b] += wa * dp[b][d]
				}
			}
		}
	}
	*out = m.mat
	ch.ChargeCompute(float64(len(el.qp))*8*8*2, 8*8*8)
}

// Load accumulates ∫ f·N_a over the element into out (overwriting it). f is
// evaluated at quadrature points; corner is the element's minimal vertex
// coordinate.
func (el *Element) Load(f func(x, y, z float64) float64, corner [3]float64, out *[8]float64, ch Charger) {
	if ch == nil {
		ch = nopCharger{}
	}
	*out = [8]float64{}
	for q := range el.qp {
		xi := el.qp[q].Xi
		x := corner[0] + (xi[0]+1)/2*el.Hx
		y := corner[1] + (xi[1]+1)/2*el.Hy
		z := corner[2] + (xi[2]+1)/2*el.Hz
		w := el.qp[q].W * el.jac * f(x, y, z)
		n := &el.n[q]
		for a := 0; a < 8; a++ {
			out[a] += w * n[a]
		}
	}
	ch.ChargeCompute(float64(len(el.qp))*(8*2+20), 8*8)
}

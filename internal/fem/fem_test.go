package fem

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"heterohpc/internal/krylov"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/sparse"
	"heterohpc/internal/vclock"
)

func TestShapePartitionOfUnity(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xi := [3]float64{
			float64(a)/127.5 - 1,
			float64(b)/127.5 - 1,
			float64(c)/127.5 - 1,
		}
		n, dn := ShapeQ1(xi)
		var sum float64
		var dsum [3]float64
		for i := 0; i < 8; i++ {
			sum += n[i]
			for d := 0; d < 3; d++ {
				dsum[d] += dn[i][d]
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			return false
		}
		for d := 0; d < 3; d++ {
			if math.Abs(dsum[d]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShapeKroneckerAtCorners(t *testing.T) {
	corners := [8][3]float64{
		{-1, -1, -1}, {1, -1, -1}, {-1, 1, -1}, {1, 1, -1},
		{-1, -1, 1}, {1, -1, 1}, {-1, 1, 1}, {1, 1, 1},
	}
	for a, c := range corners {
		n, _ := ShapeQ1(c)
		for b := 0; b < 8; b++ {
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(n[b]-want) > 1e-14 {
				t.Fatalf("N_%d at corner %d = %v, want %v", b, a, n[b], want)
			}
		}
	}
}

// The element integrates with the 2×2×2 Gauss–Legendre rule: eight points
// at ±1/√3 whose unit weights sum to the reference volume 8 and which
// integrate ξ²η²ζ² exactly.
func TestGauss222Weights(t *testing.T) {
	el, err := NewElement(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const g = 0.5773502691896257
	var sum, cubic float64
	for _, q := range el.qp {
		for d, x := range q.Xi {
			if math.Abs(math.Abs(x)-g) > 1e-15 {
				t.Fatalf("point %v: coordinate %d is not ±1/√3", q.Xi, d)
			}
		}
		sum += q.W
		cubic += q.W * q.Xi[0] * q.Xi[0] * q.Xi[1] * q.Xi[1] * q.Xi[2] * q.Xi[2]
	}
	if math.Abs(sum-8) > 1e-14 {
		t.Fatalf("weights sum to %v, want 8 (reference volume)", sum)
	}
	if want := 8.0 / 27; math.Abs(cubic-want) > 1e-14 {
		t.Fatalf("rule integrates ξ²η²ζ² to %v, want %v", cubic, want)
	}
}

func TestElementValidation(t *testing.T) {
	if _, err := NewElement(0, 1, 1); err == nil {
		t.Error("degenerate element accepted")
	}
}

func TestMassMatrixIntegratesVolume(t *testing.T) {
	el, err := NewElement(0.5, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	var m [8][8]float64
	el.Mass(3, &m, nil)
	var sum float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			sum += m[a][b]
		}
	}
	if want := 3 * el.Hx * el.Hy * el.Hz; math.Abs(sum-want) > 1e-12 {
		t.Fatalf("mass total %v, want %v", sum, want)
	}
	// Symmetry.
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if math.Abs(m[a][b]-m[b][a]) > 1e-14 {
				t.Fatal("mass matrix not symmetric")
			}
		}
	}
}

func TestStiffnessAnnihilatesConstants(t *testing.T) {
	el, _ := NewElement(0.3, 0.7, 0.2)
	var k [8][8]float64
	el.Stiffness(2, &k, nil)
	for a := 0; a < 8; a++ {
		var row float64
		for b := 0; b < 8; b++ {
			row += k[a][b]
			if math.Abs(k[a][b]-k[b][a]) > 1e-13 {
				t.Fatal("stiffness not symmetric")
			}
		}
		if math.Abs(row) > 1e-12 {
			t.Fatalf("stiffness row %d sums to %v", a, row)
		}
	}
}

func TestStiffnessExactOnLinear(t *testing.T) {
	// For u = x on one element, uᵀ·K·u = ∫|∇u|² = volume.
	el, _ := NewElement(0.5, 0.5, 0.5)
	var k [8][8]float64
	el.Stiffness(1, &k, nil)
	// Node coordinates in local ordering: x-offset pattern 0,1,0,1,...
	var u [8]float64
	for a := 0; a < 8; a++ {
		u[a] = float64(a%2) * el.Hx
	}
	var energy float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			energy += u[a] * k[a][b] * u[b]
		}
	}
	if want := el.Hx * el.Hy * el.Hz; math.Abs(energy-want) > 1e-12 {
		t.Fatalf("energy %v, want %v", energy, want)
	}
}

func TestConvectionAnnihilatesConstants(t *testing.T) {
	el, _ := NewElement(0.4, 0.4, 0.4)
	var c [8][8]float64
	el.Convection([3]float64{1, -2, 0.5}, &c, nil)
	// Column action on a constant field: Σ_b C[a][b]·1 = ∫ N_a (w·∇1) = 0.
	for a := 0; a < 8; a++ {
		var row float64
		for b := 0; b < 8; b++ {
			row += c[a][b]
		}
		if math.Abs(row) > 1e-12 {
			t.Fatalf("convection row %d sums to %v", a, row)
		}
	}
}

func TestConvectionExactOnLinear(t *testing.T) {
	// For u = x and w = (1,0,0): Σ_b C[a][b]·u_b = ∫ N_a ∂x/∂x = ∫ N_a, and
	// Σ_a ∫N_a = volume.
	el, _ := NewElement(0.3, 0.5, 0.7)
	var c [8][8]float64
	el.Convection([3]float64{1, 0, 0}, &c, nil)
	var u [8]float64
	for a := 0; a < 8; a++ {
		u[a] = float64(a%2) * el.Hx
	}
	var total float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			total += c[a][b] * u[b]
		}
	}
	if math.Abs(total-el.Hx*el.Hy*el.Hz) > 1e-12 {
		t.Fatalf("convection action %v, want %v", total, el.Hx*el.Hy*el.Hz)
	}
}

func TestGradientExactOnLinear(t *testing.T) {
	// Σ_ab G_d[a][b]·p_b = ∫ ∂p/∂x_d for p linear.
	el, _ := NewElement(0.25, 0.5, 1)
	var g [8][8]float64
	el.Gradient(1, &g, nil) // d/dy
	var p [8]float64
	for a := 0; a < 8; a++ {
		p[a] = float64((a/2)%2) * el.Hy * 3 // p = 3y
	}
	var total float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			total += g[a][b] * p[b]
		}
	}
	if want := 3 * el.Hx * el.Hy * el.Hz; math.Abs(total-want) > 1e-12 {
		t.Fatalf("gradient action %v, want %v", total, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad direction did not panic")
		}
	}()
	el.Gradient(3, &g, nil)
}

func TestLoadIntegratesConstant(t *testing.T) {
	el, _ := NewElement(0.5, 0.5, 0.5)
	var f [8]float64
	el.Load(func(x, y, z float64) float64 { return 4 }, [3]float64{0, 0, 0}, &f, nil)
	var sum float64
	for a := 0; a < 8; a++ {
		sum += f[a]
	}
	if want := 4 * el.Hx * el.Hy * el.Hz; math.Abs(sum-want) > 1e-12 {
		t.Fatalf("load total %v, want %v", sum, want)
	}
}

func TestLoadEvaluatesCoordinates(t *testing.T) {
	// ∫ x over an element at corner (1,2,3) with h=1: mean x = 1.5, so the
	// total load is 1.5·V.
	el, _ := NewElement(1, 1, 1)
	var f [8]float64
	el.Load(func(x, y, z float64) float64 { return x }, [3]float64{1, 2, 3}, &f, nil)
	var sum float64
	for a := 0; a < 8; a++ {
		sum += f[a]
	}
	if math.Abs(sum-1.5) > 1e-12 {
		t.Fatalf("∫x = %v, want 1.5", sum)
	}
}

// --- distributed space tests ---

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

func TestAssembleVectorTotalIsVolume(t *testing.T) {
	m := mesh.NewUnitCube(4)
	runRanks(t, 8, func(r *mp.Rank) error {
		s, err := NewSpaceBlock(r, m, 2, 2, 2, 10)
		if err != nil {
			return err
		}
		rhs := make([]float64, s.NOwned())
		s.AssembleVector(rhs, func(e int, out *[8]float64) {
			s.El.Load(func(x, y, z float64) float64 { return 1 }, s.ElemCorner(e), out, r)
		})
		var local float64
		for _, v := range rhs {
			local += v
		}
		total := r.AllreduceScalar(mp.OpSum, local)
		if math.Abs(total-1) > 1e-12 {
			return fmt.Errorf("global load total %v, want 1 (unit cube volume)", total)
		}
		return nil
	})
}

// The patch test: the Q1 discretisation of Laplace's equation with linear
// Dirichlet data reproduces the linear solution to machine precision, on a
// distributed 8-rank assembly.
func TestPatchTestDistributed(t *testing.T) {
	m := mesh.NewUnitCube(4)
	exact := func(x, y, z float64) float64 { return 1 + 2*x - 3*y + 0.5*z }
	runRanks(t, 8, func(r *mp.Rank) error {
		s, err := NewSpaceBlock(r, m, 2, 2, 2, 20)
		if err != nil {
			return err
		}
		var coo sparse.COO
		s.AssembleMatrix(&coo, func(e int, out *[8][8]float64) {
			s.El.Stiffness(1, out, r)
		})
		dm, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 30)
		if err != nil {
			return err
		}
		rhs := make([]float64, s.NOwned())
		dm.NewDirichlet(s.IsBoundary).EliminateRHS(func(v int) float64 {
			x, y, z := s.M.VertexCoord(v)
			return exact(x, y, z)
		}, rhs)
		M := krylov.NewILU0(dm.Local(), dm.NOwned(), r)
		if err := M.Setup(); err != nil {
			return err
		}
		x := make([]float64, s.NOwned())
		res, err := krylov.CG(dm, M, rhs, x, krylov.Options{Tol: 1e-12, MaxIter: 500})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("CG did not converge: %+v", res)
		}
		if e := s.MaxNodalError(x, exact); e > 1e-9 {
			return fmt.Errorf("patch test error %v", e)
		}
		return nil
	})
}

// Single-rank and multi-rank assemblies must produce identical solutions.
func TestSerialParallelEquivalence(t *testing.T) {
	m := mesh.NewUnitCube(4)
	exact := func(x, y, z float64) float64 { return math.Sin(x) * math.Cos(y) * (1 + z) }
	solve := func(nranks, px, py, pz int) []float64 {
		sol := make([]float64, m.NumVerts())
		runRanks(t, nranks, func(r *mp.Rank) error {
			s, err := NewSpaceBlock(r, m, px, py, pz, 40)
			if err != nil {
				return err
			}
			var coo sparse.COO
			s.AssembleMatrix(&coo, func(e int, out *[8][8]float64) {
				var mm [8][8]float64
				s.El.Stiffness(1, out, r)
				s.El.Mass(1, &mm, r)
				for a := 0; a < 8; a++ {
					for b := 0; b < 8; b++ {
						out[a][b] += mm[a][b]
					}
				}
			})
			dm, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 50)
			if err != nil {
				return err
			}
			rhs := make([]float64, s.NOwned())
			s.AssembleVector(rhs, func(e int, out *[8]float64) {
				s.El.Load(func(x, y, z float64) float64 { return x + y*z }, s.ElemCorner(e), out, r)
			})
			dm.NewDirichlet(s.IsBoundary).EliminateRHS(func(v int) float64 {
				x, y, z := s.M.VertexCoord(v)
				return exact(x, y, z)
			}, rhs)
			x := make([]float64, s.NOwned())
			res, err := krylov.CG(dm, nil, rhs, x, krylov.Options{Tol: 1e-12, MaxIter: 1000})
			if err != nil || !res.Converged {
				return fmt.Errorf("cg: %v %+v", err, res)
			}
			for i, g := range s.RowMap.Owned {
				sol[g] = x[i] // ranks own disjoint rows; no race
			}
			return nil
		})
		return sol
	}
	serial := solve(1, 1, 1, 1)
	par := solve(8, 2, 2, 2)
	for v := range serial {
		if math.Abs(serial[v]-par[v]) > 1e-9*(1+math.Abs(serial[v])) {
			t.Fatalf("vertex %d: serial %v vs parallel %v", v, serial[v], par[v])
		}
	}
}

func TestInterpolateAndErrors(t *testing.T) {
	m := mesh.NewUnitCube(3)
	runRanks(t, 1, func(r *mp.Rank) error {
		s, err := NewSpaceBlock(r, m, 1, 1, 1, 60)
		if err != nil {
			return err
		}
		f := func(x, y, z float64) float64 { return x*y + z }
		u := make([]float64, s.NOwned())
		s.Interpolate(f, u)
		if e := s.MaxNodalError(u, f); e != 0 {
			return fmt.Errorf("interpolation max error %v", e)
		}
		if e := s.L2NodalError(u, f); e != 0 {
			return fmt.Errorf("interpolation L2 error %v", e)
		}
		u[0] += 0.5
		if e := s.MaxNodalError(u, f); math.Abs(e-0.5) > 1e-14 {
			return fmt.Errorf("perturbed max error %v, want 0.5", e)
		}
		return nil
	})
}

func TestNewSpaceBlockValidation(t *testing.T) {
	m := mesh.NewUnitCube(2)
	runRanks(t, 2, func(r *mp.Rank) error {
		if _, err := NewSpaceBlock(r, m, 1, 1, 1, 70); err == nil {
			return fmt.Errorf("mismatched block grid accepted")
		}
		return nil
	})
}

// AssembleMatrixValues must reproduce exactly the values AssembleMatrix
// produces, in the same order.
func TestAssembleMatrixValuesMatchesFull(t *testing.T) {
	m := mesh.NewUnitCube(3)
	runRanks(t, 8, func(r *mp.Rank) error {
		s, err := NewSpaceBlock(r, m, 2, 2, 2, 80)
		if err != nil {
			return err
		}
		elem := func(e int, out *[8][8]float64) {
			s.El.Stiffness(2.5, out, r)
			var mm [8][8]float64
			s.El.Mass(1.5, &mm, r)
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					out[a][b] += mm[a][b]
				}
			}
		}
		var full sparse.COO
		s.AssembleMatrix(&full, elem)
		want := append([]float64(nil), full.Vals...)
		// Values-only refill over the same COO.
		s.AssembleMatrixValues(&full, elem)
		if len(full.Vals) != len(want) {
			return fmt.Errorf("lengths differ: %d vs %d", len(full.Vals), len(want))
		}
		for i := range want {
			if full.Vals[i] != want[i] {
				return fmt.Errorf("value %d differs: %v vs %v", i, full.Vals[i], want[i])
			}
		}
		return nil
	})
}

// TestRefillDropsBuildState: the first Refill ends set-up, so the space lets
// go of everything NewMatrix keeps for the builds that follow — its element
// ids, the pair streams they shipped and the value array a frozen operator
// dropped (the 4×4×4 blocks have class-mates, so most ranks have one) — and
// a NewMatrix after it still builds the operator it built before.
func TestRefillDropsBuildState(t *testing.T) {
	const q = 4
	m := mesh.NewUnitCube(2 * q)
	runRanks(t, q*q*q, func(r *mp.Rank) error {
		s, err := NewSpaceBlock(r, m, q, q, q, 80)
		if err != nil {
			return err
		}
		mass := func(e int, out *[8][8]float64, ch sparse.Charger) { s.El.Mass(1, out, ch) }
		stiff := func(e int, out *[8][8]float64, ch sparse.Charger) { s.El.Stiffness(1, out, ch) }
		massDM, err := s.NewMatrix(mass, 100, nil)
		if err != nil {
			return err
		}
		want := massDM.Local().Clone()
		sys, err := s.NewMatrix(stiff, 200, massDM)
		if err != nil {
			return err
		}
		massDM.Freeze()
		if s.blocks.IDs == nil {
			return fmt.Errorf("no element ids kept during set-up")
		}
		s.Refill(sys, stiff)
		if !reflect.ValueOf(s.blocks).IsZero() {
			return fmt.Errorf("the space keeps build state after Refill")
		}
		again, err := s.NewMatrix(mass, 300, massDM)
		if err != nil {
			return err
		}
		got := again.Local()
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) ||
			!slices.EqualFunc(got.Val, want.Val, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Errorf("a build after Refill differs from the first")
		}
		return nil
	})
}

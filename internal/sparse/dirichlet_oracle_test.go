package sparse_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heterohpc/internal/fem"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
)

// eliminator is what the test drives of a boundary elimination, the
// per-column one or the per-coupling reference.
type eliminator interface {
	Recompute(isBC func(global int) bool)
	EliminateRHS(g func(global int) float64, rhs []float64)
}

// TestEliminateRHSEvaluatesEachBoundaryColumnOnce holds the per-column
// EliminateRHS to the per-coupling reference on the operators the
// applications eliminate — the RD system and the NS velocity and pressure
// operators, on all 8 ranks of a block decomposition — before and after a
// refill and Recompute: the matrices after elimination and every right-hand
// side agree bit for bit and every call charges the rank the same flops and
// bytes, while the boundary function is asked exactly once for each
// distinct id the reference asks for, however often that one asks.
func TestEliminateRHSEvaluatesEachBoundaryColumnOnce(t *testing.T) {
	m := mesh.NewUnitCube(8)
	sparse.RunWorld(t, 8, func(r *mp.Rank) error {
		s, err := fem.NewSpaceBlock(r, m, 2, 2, 2, 1000)
		if err != nil {
			return err
		}
		el := s.El
		mass := func(c float64) func(*[8][8]float64) { return func(ke *[8][8]float64) { el.Mass(c, ke, r) } }
		stiff := func(c float64) func(*[8][8]float64) { return func(ke *[8][8]float64) { el.Stiffness(c, ke, r) } }
		conv := func(w [3]float64) func(*[8][8]float64) { return func(ke *[8][8]float64) { el.Convection(w, ke, r) } }
		boundary := func(v int) float64 {
			x, y, z := m.VertexCoord(v)
			return math.Sin(3*x) + y*y - math.Exp(z)
		}
		for i, op := range []struct {
			name         string
			first, refil func(int, *[8][8]float64)
		}{
			{"rd system", sumOf(mass(28.18), stiff(0.83)), sumOf(mass(26.5), stiff(0.69))},
			{"ns velocity", sumOf(mass(30), stiff(0.01), conv([3]float64{1, -0.5, 0.25})),
				sumOf(mass(30), stiff(0.01), conv([3]float64{-0.2, 0.7, 0}))},
			{"ns pressure", sumOf(stiff(1)), sumOf(stiff(1))},
		} {
			at := fmt.Sprintf("%s, rank %d", op.name, r.ID())
			var coo sparse.COO
			s.AssembleMatrix(&coo, op.first)
			got, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1200+200*i)
			if err != nil {
				return err
			}
			want, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1300+200*i)
			if err != nil {
				return err
			}

			// step runs one call on both sides and compares what each
			// charged the rank (the counts are integers: the differences
			// are exact).
			type charge struct{ flops, bytes float64 }
			read := func() charge {
				f, b, _, _ := r.Clock().Counters()
				return charge{f, b}
			}
			step := func(what string, onGot, onWant func()) {
				t0 := read()
				onGot()
				t1 := read()
				onWant()
				t2 := read()
				dg := charge{t1.flops - t0.flops, t1.bytes - t0.bytes}
				dw := charge{t2.flops - t1.flops, t2.bytes - t1.bytes}
				if dg != dw || dg.flops == 0 {
					t.Errorf("%s, %s: charged %+v, reference %+v", at, what, dg, dw)
				}
			}
			var elim, ref eliminator
			step("NewDirichlet",
				func() { elim = got.NewDirichlet(s.IsBoundary) },
				func() { ref = sparse.RefNewDirichlet(want, s.IsBoundary) })

			check := func(stage string) {
				sparse.RequireSameCSR(t, got.Local(), want.Local())
				for rep := 0; rep < 2; rep++ { // the value scratch is reused
					calls, refCalls := map[int]int{}, map[int]int{}
					rhs := make([]float64, s.NOwned())
					for j := range rhs {
						rhs[j] = math.Cos(float64(7*j + rep + r.ID()))
					}
					refRHS := slices.Clone(rhs)
					scale := float64(1 + rep)
					step(stage+" EliminateRHS",
						func() { elim.EliminateRHS(func(v int) float64 { calls[v]++; return scale * boundary(v) }, rhs) },
						func() { ref.EliminateRHS(func(v int) float64 { refCalls[v]++; return scale * boundary(v) }, refRHS) })
					for j := range rhs {
						if math.Float64bits(rhs[j]) != math.Float64bits(refRHS[j]) {
							t.Fatalf("%s, %s: rhs[%d] = %v, reference %v", at, stage, j, rhs[j], refRHS[j])
						}
					}
					repeated := 0
					for v, n := range refCalls {
						if calls[v] != 1 {
							t.Fatalf("%s, %s: g(%d) called %d times, want once (the reference: %d)", at, stage, v, calls[v], n)
						}
						if n > 1 {
							repeated++
						}
					}
					if len(calls) != len(refCalls) || repeated == 0 {
						t.Fatalf("%s, %s: g asked for %d ids, the reference for %d (%d of them repeatedly)",
							at, stage, len(calls), len(refCalls), repeated)
					}
				}
			}
			check("first build")

			s.AssembleMatrixValues(&coo, op.refil)
			got.SetValues(&coo)
			want.SetValues(&coo)
			step("Recompute",
				func() { elim.Recompute(s.IsBoundary) },
				func() { ref.Recompute(s.IsBoundary) })
			check("after Recompute")
		}
		return nil
	})
}

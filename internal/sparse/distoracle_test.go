package sparse_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"heterohpc/internal/fem"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
)

// rankSystem is what one rank contributes to, and gets out of, a
// distributed build of the RD system operator.
type rankSystem struct {
	owned     []int
	coo       sparse.COO
	local     *sparse.CSR
	colGlobal []int
}

// refLocal rebuilds rank's owned block from every rank's triplets with the
// sort-based reference: the rank's own triplets in structure order, then
// each other rank's in ascending rank order — the order SetValues
// accumulates in — over the column map [owned | ghosts ascending].
func refLocal(rank int, all []rankSystem, owner func(int) int) (*sparse.CSR, []int) {
	owned := all[rank].owned
	local := make(map[int]int, len(owned))
	for l, g := range owned {
		local[g] = l
	}
	order := []int{rank}
	for q := range all {
		if q != rank {
			order = append(order, q)
		}
	}
	var rows, gcols []int
	var vals []float64
	ghostSet := map[int]bool{}
	for _, q := range order {
		c := sparse.Expand(&all[q].coo) // assembled in block form
		for t, g := range c.Rows {
			if owner(g) != rank {
				continue
			}
			rows = append(rows, local[g])
			gcols = append(gcols, c.Cols[t])
			vals = append(vals, c.Vals[t])
			if _, ok := local[c.Cols[t]]; !ok {
				ghostSet[c.Cols[t]] = true
			}
		}
	}
	colGlobal := append([]int(nil), owned...)
	for g := range ghostSet {
		colGlobal = append(colGlobal, g)
	}
	sort.Ints(colGlobal[len(owned):])
	for i, g := range colGlobal[len(owned):] {
		local[g] = len(owned) + i
	}
	var c sparse.COO
	for t := range rows {
		c.Add(rows[t], local[gcols[t]], vals[t])
	}
	return sparse.RefCSRFromCOO(len(owned), len(colGlobal), &c), colGlobal
}

// TestDistMatrixMatchesSortReference is the distributed oracle test: on a
// P = 8 block decomposition and on an irregular graph-grown partition, each
// rank's owned block of the RD system operator must equal — pattern, column
// map and value bits — what the sort-based reference builds from the same
// triplets, and a second SetValues must leave the values as they were.
func TestDistMatrixMatchesSortReference(t *testing.T) {
	for _, tc := range oracleWorlds(t) {
		t.Run(tc.name, func(t *testing.T) {
			all := make([]rankSystem, tc.nranks)
			var owner func(int) int
			sparse.RunWorld(t, tc.nranks, func(r *mp.Rank) error {
				s, err := tc.space(r)
				if err != nil {
					return err
				}
				// Mass + stiffness at the first RD step's coefficients.
				const dt, t0 = 0.05, 1.1
				elem := func(e int, out *[8][8]float64) {
					var ke [8][8]float64
					s.El.Mass(3/(2*dt)-2/t0, out, r)
					s.El.Stiffness(1/(t0*t0), &ke, r)
					for a := 0; a < 8; a++ {
						for b := 0; b < 8; b++ {
							out[a][b] += ke[a][b]
						}
					}
				}
				rs := &all[r.ID()] // each rank writes its own element only
				s.AssembleMatrix(&rs.coo, elem)
				dm, err := sparse.NewDistMatrix(r, s.RowMap, &rs.coo, s.Owner, 1200)
				if err != nil {
					return err
				}
				rs.owned = s.RowMap.Owned
				rs.local = dm.Local().Clone()
				for lc := 0; lc < dm.NCols(); lc++ {
					rs.colGlobal = append(rs.colGlobal, dm.ColGlobal(lc))
				}
				dm.SetValues(&rs.coo)
				for i, v := range dm.Local().Val {
					if math.Float64bits(v) != math.Float64bits(rs.local.Val[i]) {
						t.Errorf("rank %d: second SetValues moved Val[%d] from %v to %v",
							r.ID(), i, rs.local.Val[i], v)
						break
					}
				}
				if r.ID() == 0 {
					owner = s.Owner
				}
				return nil
			})
			for rank := range all {
				want, wantCols := refLocal(rank, all, owner)
				if !slices.Equal(all[rank].colGlobal, wantCols) {
					t.Fatalf("rank %d: column map differs from the reference", rank)
				}
				t.Logf("comparing rank %d", rank)
				sparse.RequireSameCSR(t, all[rank].local, want)
			}
		})
	}
}

// TestMulVecMatchesRowReferenceOnAppOperators holds the row-paired MulVec to
// its row-at-a-time reference on what the applications multiply by: every
// rank's owned block, ghost columns at the row tails, of the RD system
// operator and of the NS mass, pressure, gradient and velocity (convection:
// non-symmetric) operators on a P = 8 block decomposition.
func TestMulVecMatchesRowReferenceOnAppOperators(t *testing.T) {
	m := mesh.NewUnitCube(8)
	sparse.RunWorld(t, 8, func(r *mp.Rank) error {
		s, err := fem.NewSpaceBlock(r, m, 2, 2, 2, 1000)
		if err != nil {
			return err
		}
		el := s.El
		mass := func(c float64) func(*[8][8]float64) { return func(ke *[8][8]float64) { el.Mass(c, ke, r) } }
		stiff := func(c float64) func(*[8][8]float64) { return func(ke *[8][8]float64) { el.Stiffness(c, ke, r) } }
		var coo sparse.COO
		for i, op := range []struct {
			name string
			elem func(int, *[8][8]float64)
		}{
			{"rd system", sumOf(mass(28.18), stiff(0.83))},
			{"ns mass", sumOf(mass(1))},
			{"ns pressure", sumOf(stiff(1))},
			{"ns gradient y", sumOf(func(ke *[8][8]float64) { el.Gradient(1, ke, r) })},
			{"ns velocity", sumOf(mass(30), stiff(0.01), func(ke *[8][8]float64) {
				el.Convection([3]float64{1, -0.5, 0.25}, ke, r)
			})},
		} {
			s.AssembleMatrix(&coo, op.elem)
			dm, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1200+100*i)
			if err != nil {
				return err
			}
			sparse.RequireMulVecMatchesReference(t, fmt.Sprintf("%s, rank %d", op.name, r.ID()),
				dm.Local(), uint64(10*i+r.ID()))
		}
		return nil
	})
}

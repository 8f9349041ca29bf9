package krylov

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heterohpc/internal/fem"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
	"heterohpc/internal/stats"
)

// The sweeps ILU0.Apply and SGS.Apply ran before they took their split
// points from blockSplit — every entry of every row behind a column
// predicate — kept as their oracles, with the Slot-per-row set-up Jacobi and
// SGS used.

func refILU0Apply(a *sparse.CSR, n int, lu []float64, r, z []float64, ch sparse.Charger) {
	for i := 0; i < n; i++ {
		sum := r[i]
		for sl := a.RowPtr[i]; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c < i && c < n {
				sum -= lu[sl] * z[c]
			}
		}
		z[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		d := a.Slot(i, i)
		sum := z[i]
		for sl := d + 1; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c < n {
				sum -= lu[sl] * z[c]
			}
		}
		z[i] = sum / lu[d]
	}
	nnz := float64(a.NNZ())
	ch.ChargeCompute(2*nnz, 2*20*nnz)
}

func refInvertDiagonal(a *sparse.CSR, n int, ch sparse.Charger) ([]float64, error) {
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		s := a.Slot(i, i)
		if s < 0 || a.Val[s] == 0 {
			return nil, fmt.Errorf("krylov: zero diagonal at row %d", i)
		}
		dinv[i] = 1 / a.Val[s]
	}
	ch.ChargeCompute(float64(n), 16*float64(n))
	return dinv, nil
}

func refSGSApply(a *sparse.CSR, n int, dinv []float64, r, z []float64, ch sparse.Charger) {
	for i := 0; i < n; i++ {
		sum := r[i]
		for sl := a.RowPtr[i]; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c < i {
				sum -= a.Val[sl] * z[c]
			}
		}
		z[i] = sum * dinv[i]
	}
	for i := n - 1; i >= 0; i-- {
		var sum float64
		for sl := a.RowPtr[i]; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c > i && c < n {
				sum += a.Val[sl] * z[c]
			}
		}
		z[i] -= sum * dinv[i]
	}
	nnz := float64(a.NNZ())
	ch.ChargeCompute(4*nnz, 2*20*nnz)
}

// chargeLog records every ChargeCompute in order: the clock advances per
// call, so the sequence is part of a kernel's contract.
type chargeLog [][2]float64

func (l *chargeLog) ChargeCompute(flops, bytes float64) { *l = append(*l, [2]float64{flops, bytes}) }

// block is the first n rows and columns of a: what a preconditioner sees.
type block struct {
	name string
	a    *sparse.CSR
	n    int
}

// raggedBlock builds nrows rows over ncols columns, each with a diagonal
// and a seeded number (0 to 8) of other entries — lower, upper and, when
// ncols > nrows, ghost.
func raggedBlock(nrows, ncols int, seed uint64) *sparse.CSR {
	rng := stats.NewRNG(seed)
	var c sparse.COO
	for r := 0; r < nrows; r++ {
		c.Add(r, r, rng.Range(4, 9))
		for _, col := range rng.Perm(ncols)[:rng.Intn(min(9, ncols))] {
			if col != r {
				c.Add(r, col, rng.Range(-1, 1))
			}
		}
	}
	a, err := sparse.NewCSRFromCOO(nrows, ncols, &c)
	if err != nil {
		panic(err)
	}
	return a
}

// appBlocks assembles every rank's owned block of the RD system operator and
// of the NS pressure and velocity (convection: non-symmetric) operators on a
// P = 8 block decomposition: ghost columns at every row's tail.
func appBlocks(t *testing.T) []block {
	t.Helper()
	const nranks = 8
	m := mesh.NewUnitCube(8)
	blocks := make([][]block, nranks) // each rank writes its own element only
	err := newTestWorld(t, nranks).Run(func(r *mp.Rank) error {
		s, err := fem.NewSpaceBlock(r, m, 2, 2, 2, 1000)
		if err != nil {
			return err
		}
		var coo sparse.COO
		for i, op := range []struct {
			name        string
			alpha, beta float64
			w           [3]float64
		}{
			{"rd system", 28.18, 0.83, [3]float64{}},
			{"ns pressure", 0, 1, [3]float64{}},
			{"ns velocity", 30, 0.01, [3]float64{1, -0.5, 0.25}},
		} {
			s.AssembleMatrix(&coo, func(e int, out *[8][8]float64) {
				var ke, ce [8][8]float64
				s.El.Mass(op.alpha, out, r)
				s.El.Stiffness(op.beta, &ke, r)
				s.El.Convection(op.w, &ce, r)
				for a := 0; a < 8; a++ {
					for b := 0; b < 8; b++ {
						out[a][b] += ke[a][b] + ce[a][b]
					}
				}
			})
			dm, err := sparse.NewDistMatrix(r, s.RowMap, &coo, s.Owner, 1200+100*i)
			if err != nil {
				return err
			}
			blocks[r.ID()] = append(blocks[r.ID()], block{
				fmt.Sprintf("%s, rank %d", op.name, r.ID()), dm.Local().Clone(), dm.NOwned()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(blocks...)
}

func sweepBlocks(t *testing.T) []block {
	one, err := sparse.NewCSRFromCOO(1, 1, &sparse.COO{Rows: []int{0}, Cols: []int{0}, Vals: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	return append([]block{
		{"1x1", one, 1},
		{"lap3d", lap3dRows(6, 216), 216},
		{"convdiff1d, odd n", convdiff(401, 0.4), 401},
		{"ghost columns at the row tails", lap3dRows(6, 150), 150},
		{"n < NRows: leading block of a square matrix", lap3dRows(5, 125), 90},
		{"ragged square", raggedBlock(97, 97, 11), 97},
		{"ragged with ghosts", raggedBlock(64, 90, 12), 64},
		{"ragged with ghosts, n < NRows", raggedBlock(64, 90, 13), 40},
	}, appBlocks(t)...)
}

func seededVec(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Range(-2, 2)
	}
	return v
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: z[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBlockSplitMatchesScan: the split points every sweep relies on, against
// a plain scan of the row.
func TestBlockSplitMatchesScan(t *testing.T) {
	var c sparse.COO // row 1 has no diagonal, row 2 is empty, row 3 is all ghosts
	for _, e := range [][2]int{{0, 0}, {0, 2}, {0, 5}, {1, 0}, {1, 3}, {3, 4}, {3, 5}} {
		c.Add(e[0], e[1], 1)
	}
	holes, err := sparse.NewCSRFromCOO(4, 6, &c)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append(sweepBlocks(t), block{"missing diagonals", holes, 4}, block{"n = 0", holes, 0}) {
		diag, end := blockSplit(b.a, b.n)
		if len(diag) != b.n || len(end) != b.n {
			t.Fatalf("%s: %d diagonals, %d ends for n = %d", b.name, len(diag), len(end), b.n)
		}
		for i := 0; i < b.n; i++ {
			wantEnd := b.a.RowPtr[i]
			for wantEnd < b.a.RowPtr[i+1] && b.a.Col[wantEnd] < b.n {
				wantEnd++
			}
			if int(diag[i]) != b.a.Slot(i, i) || int(end[i]) != wantEnd {
				t.Fatalf("%s: row %d split at diag %d, end %d; scan says %d, %d",
					b.name, i, diag[i], end[i], b.a.Slot(i, i), wantEnd)
			}
		}
	}
}

// TestSweepsMatchPredicateReference: the split-range ILU(0) and SGS sweeps
// and the shared diagonal set-up perform the reference's operations in the
// reference's order — equal bits in z, equal charge sequences — on every
// shape, twice over (Apply must not depend on what it left in z).
func TestSweepsMatchPredicateReference(t *testing.T) {
	for bi, b := range sweepBlocks(t) {
		r := seededVec(b.n, uint64(1000+bi))
		got, want := make([]float64, b.n), make([]float64, b.n)

		var gotCh, wantCh chargeLog
		ilu := NewILU0(b.a, b.n, &gotCh)
		if err := ilu.Setup(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		gotCh = nil // TestILU0SetupMatchesSlotReference owns the set-up charge
		for pass := 0; pass < 2; pass++ {
			ilu.Apply(r, got)
			refILU0Apply(b.a, b.n, ilu.lu, r, want, &wantCh)
			requireSameBits(t, b.name+": ILU0", got, want)
		}
		if !slices.Equal(gotCh, wantCh) {
			t.Fatalf("%s: ILU0 charged %v, reference %v", b.name, gotCh, wantCh)
		}

		gotCh, wantCh = nil, nil
		sgs := NewSGS(b.a, b.n, &gotCh)
		if err := sgs.Setup(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		dinv, err := refInvertDiagonal(b.a, b.n, &wantCh)
		if err != nil {
			t.Fatalf("%s: reference: %v", b.name, err)
		}
		for pass := 0; pass < 2; pass++ {
			sgs.Apply(r, got)
			refSGSApply(b.a, b.n, dinv, r, want, &wantCh)
			requireSameBits(t, b.name+": SGS", got, want)
		}
		if !slices.Equal(gotCh, wantCh) {
			t.Fatalf("%s: SGS charged %v, reference %v", b.name, gotCh, wantCh)
		}

		gotCh, wantCh = nil, nil
		jac := NewJacobi(b.a, b.n, &gotCh)
		if err := jac.Setup(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if _, err := refInvertDiagonal(b.a, b.n, &wantCh); err != nil {
			t.Fatalf("%s: reference: %v", b.name, err)
		}
		requireSameBits(t, b.name+": Jacobi dinv", jac.dinv, dinv)
		if !slices.Equal(gotCh, wantCh) {
			t.Fatalf("%s: Jacobi set-up charged %v, reference %v", b.name, gotCh, wantCh)
		}
	}
}

// TestDiagonalErrorsSurfaceFromSetup: the constructors locate the diagonals,
// but a missing or zero one is still Setup's error, worded as before, and
// only for rows inside the block.
func TestDiagonalErrorsSurfaceFromSetup(t *testing.T) {
	var c sparse.COO // row 1 has no diagonal entry, row 3 stores a zero one
	for _, e := range [][3]float64{{0, 0, 2}, {1, 0, 1}, {1, 2, 1}, {2, 2, 4}, {3, 3, 0}} {
		c.Add(int(e[0]), int(e[1]), e[2])
	}
	holes, err := sparse.NewCSRFromCOO(4, 4, &c)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 1, 5)
	zero, err := sparse.NewCSRFromCOO(4, 4, &c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a    *sparse.CSR
		n    int
		want string
	}{
		{holes, 1, "<nil>"},
		{holes, 4, "krylov: zero diagonal at row 1"},
		{zero, 3, "<nil>"},
		{zero, 4, "krylov: zero diagonal at row 3"},
	} {
		_, refErr := refInvertDiagonal(tc.a, tc.n, sparse.NopCharger{})
		for name, err := range map[string]error{
			"reference": refErr,
			"jacobi":    NewJacobi(tc.a, tc.n, nil).Setup(),
			"sgs":       NewSGS(tc.a, tc.n, nil).Setup(),
		} {
			if fmt.Sprint(err) != tc.want {
				t.Errorf("%s, n = %d: err = %v, want %s", name, tc.n, err, tc.want)
			}
		}
	}
}

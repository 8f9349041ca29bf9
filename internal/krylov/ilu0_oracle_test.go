package krylov

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"heterohpc/internal/sparse"
)

// refILU0Setup is the slot-based IKJ factorisation ILU0.Setup used before
// the two-pointer merge, kept as its oracle: a binary search of row k per
// candidate update instead of a merge of the two sorted rows.
func refILU0Setup(a *sparse.CSR, n int) (lu []float64, flops float64, err error) {
	lu = append([]float64(nil), a.Val...)
	diag := make([]int, n)
	for i := 0; i < n; i++ {
		if diag[i] = slot(a, i, i); diag[i] < 0 {
			return nil, 0, fmt.Errorf("krylov: missing diagonal at row %d", i)
		}
	}
	for i := 0; i < n; i++ {
		for sl := a.RowPtr[i]; sl < a.RowPtr[i+1]; sl++ {
			k := a.Col[sl]
			if k >= i || k >= n {
				continue
			}
			lik := lu[sl] / lu[diag[k]] // row k < i: pivot checked below
			lu[sl] = lik
			for t := sl + 1; t < a.RowPtr[i+1]; t++ {
				j := a.Col[t]
				if j >= n {
					continue
				}
				if u := slot(a, k, j); u >= 0 {
					lu[t] -= lik * lu[u]
					flops += 2
				}
			}
		}
		// Apply divides by every row's pivot, referenced by a later row
		// or not.
		if lu[diag[i]] == 0 {
			return nil, 0, fmt.Errorf("krylov: zero pivot at row %d", i)
		}
	}
	return lu, flops + float64(a.NNZ()), nil
}

// lap3dRows builds the first nrows rows of the 7-point Laplacian on an nx³
// grid over all nx³ columns: with nrows < nx³ it is an owned block whose
// trailing columns are ghosts.
func lap3dRows(nx, nrows int) *sparse.CSR {
	var c sparse.COO
	id := func(i, j, k int) int { return (k*nx+j)*nx + i }
	for k := 0; k < nx; k++ {
		for j := 0; j < nx; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				if r >= nrows {
					continue
				}
				c.Add(r, r, 6+0.1*float64(r%7))
				for d, o := range [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
					ii, jj, kk := i+o[0], j+o[1], k+o[2]
					if ii >= 0 && ii < nx && jj >= 0 && jj < nx && kk >= 0 && kk < nx {
						c.Add(r, id(ii, jj, kk), -1-0.01*float64(d))
					}
				}
			}
		}
	}
	m, err := sparse.NewCSRFromCOO(nrows, nx*nx*nx, &c)
	if err != nil {
		panic(err)
	}
	return m
}

// TestILU0SetupMatchesSlotReference: the scatter map must apply the same
// updates in the same order as the per-update binary search, so the factor and the
// charged flop count are equal bit for bit.
func TestILU0SetupMatchesSlotReference(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		n    int
	}{
		{"lap3d", lap3dRows(6, 216), 216},
		{"convdiff1d", convdiff(400, 0.4), 400},
		{"owned block with ghost columns", lap3dRows(6, 150), 150},
		{"leading block of a square matrix", lap3dRows(5, 125), 90},
	}
	for _, tc := range cases {
		wantLU, wantFlops, err := refILU0Setup(tc.a, tc.n)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		var rec chargeLog
		p := NewILU0(tc.a, tc.n, &rec)
		// Twice: Setup re-runs on every refill and must not depend on the
		// factor it left behind.
		for pass := 0; pass < 2; pass++ {
			rec = nil
			if err := p.Setup(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(rec) != 1 || rec[0][0] != wantFlops {
				t.Errorf("%s: charged %v, reference one charge of %v flops", tc.name, rec, wantFlops)
			}
			for s := range wantLU {
				if math.Float64bits(p.lu[s]) != math.Float64bits(wantLU[s]) {
					t.Fatalf("%s: lu[%d] = %v, reference %v", tc.name, s, p.lu[s], wantLU[s])
				}
			}
		}
	}
}

// TestILU0SetupErrorsSurface pins the two failure modes and their order: a
// missing diagonal anywhere is reported before any pivot is examined, and
// every row's pivot is examined — also the last row's and that of a row no
// later row eliminates against, which Apply divides by all the same.
func TestILU0SetupErrorsSurface(t *testing.T) {
	build := func(n int, entries [][3]float64) *sparse.CSR {
		var c sparse.COO
		for _, e := range entries {
			c.Add(int(e[0]), int(e[1]), e[2])
		}
		a, err := sparse.NewCSRFromCOO(n, n, &c)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		want string
	}{
		{"missing diagonal, entries either side",
			build(3, [][3]float64{{0, 0, 1}, {1, 0, 1}, {1, 2, 1}, {2, 2, 1}}), "missing diagonal at row 1"},
		{"missing diagonal, empty row",
			build(3, [][3]float64{{0, 0, 1}, {2, 2, 1}}), "missing diagonal at row 1"},
		{"missing diagonal, last entry below it",
			build(2, [][3]float64{{0, 0, 1}, {1, 0, 1}}), "missing diagonal at row 1"},
		{"zero pivot",
			build(2, [][3]float64{{0, 0, 0}, {1, 0, 1}, {1, 1, 1}}), "zero pivot at row 0"},
		{"zero pivot in the last row (all-ones 2x2: U[1,1] = 1 - 1·1)",
			build(2, [][3]float64{{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}}), "zero pivot at row 1"},
		{"zero pivot in a row nobody references",
			build(3, [][3]float64{{0, 0, 1}, {1, 1, 0}, {2, 0, 1}, {2, 2, 1}}), "zero pivot at row 1"},
		{"zero pivot in a 1x1",
			build(1, [][3]float64{{0, 0, 0}}), "zero pivot at row 0"},
		{"missing diagonal reported before an earlier zero pivot",
			build(3, [][3]float64{{0, 0, 0}, {1, 0, 1}, {1, 1, 1}, {2, 0, 1}}), "missing diagonal at row 2"},
	} {
		err := NewILU0(tc.a, tc.a.NRows, nil).Setup()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			continue
		}
		if _, _, refErr := refILU0Setup(tc.a, tc.a.NRows); refErr == nil || refErr.Error() != err.Error() {
			t.Errorf("%s: reference says %v, Setup says %v", tc.name, refErr, err)
		}
	}
}

// slot returns the value index of entry (row, col) of a, or -1 if the
// pattern has no such entry: a binary search of the row's sorted columns.
func slot(a *sparse.CSR, row, col int) int {
	lo, hi := a.RowPtr[row], a.RowPtr[row+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.Col[mid] < col:
			lo = mid + 1
		case a.Col[mid] > col:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

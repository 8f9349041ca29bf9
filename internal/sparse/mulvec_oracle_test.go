package sparse

import (
	"math"
	"slices"
	"testing"

	"heterohpc/internal/stats"
)

// refMulVec is the row-at-a-time, index-everything loop MulVec ran before
// it paired rows, kept as its oracle.
func refMulVec(m *CSR, x, y []float64, ch Charger) {
	for r := 0; r < m.NRows; r++ {
		var sum float64
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			sum += m.Val[i] * x[m.Col[i]]
		}
		y[r] = sum
	}
	nnz := float64(m.NNZ())
	ch.ChargeCompute(2*nnz, 20*nnz+8*float64(m.NRows))
}

// chargeLog records the (flops, bytes) of every ChargeCompute in order: the
// clock advances per call, so the sequence is part of a kernel's contract.
type chargeLog [][2]float64

func (l *chargeLog) ChargeCompute(flops, bytes float64) { *l = append(*l, [2]float64{flops, bytes}) }

// requireMulVecMatchesReference drives MulVec and refMulVec over the same
// seeded x and demands equal bits in y and equal charge sequences. It
// reports with t.Errorf, so rank goroutines may call it.
func requireMulVecMatchesReference(t *testing.T, name string, m *CSR, seed uint64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.Range(-3, 3)
	}
	// Signed zeros and a huge entry: a reordered or re-associated sum shows.
	for i, v := range []float64{math.Copysign(0, -1), 0, 1e300, -1e-300} {
		if i < len(x) {
			x[(i*7)%len(x)] = v
		}
	}
	got := make([]float64, m.NRows)
	want := make([]float64, m.NRows)
	for i := range got {
		got[i], want[i] = math.NaN(), math.NaN() // every row must be written
	}
	var gotCh, wantCh chargeLog
	m.MulVec(x, got, &gotCh)
	refMulVec(m, x, want, &wantCh)
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Errorf("%s: y[%d] = %v (%#x), reference %v (%#x)", name, r,
				got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
			return
		}
	}
	if !slices.Equal(gotCh, wantCh) {
		t.Errorf("%s: charged %v, reference %v", name, gotCh, wantCh)
	}
}

// raggedCSR builds an nrows×ncols matrix whose row r has lens[r%len(lens)]
// seeded distinct columns and values.
func raggedCSR(t *testing.T, nrows, ncols int, lens []int, seed uint64) *CSR {
	t.Helper()
	rng := stats.NewRNG(seed)
	var c COO
	for r := 0; r < nrows; r++ {
		for _, col := range rng.Perm(ncols)[:lens[r%len(lens)]] {
			c.Add(r, col, rng.Range(-2, 2))
		}
	}
	m, err := NewCSRFromCOO(nrows, ncols, &c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMulVecMatchesRowReference: pairing two rows per pass must leave every
// row's own first-to-last sum intact, whatever the two rows' lengths.
func TestMulVecMatchesRowReference(t *testing.T) {
	for seed, tc := range []struct {
		name         string
		nrows, ncols int
		lens         []int
	}{
		{"no rows", 0, 4, []int{0}},
		{"1x1", 1, 1, []int{1}},
		{"one empty row", 1, 3, []int{0}},
		{"all rows empty", 6, 6, []int{0}},
		{"two equal rows", 2, 9, []int{5}},
		{"odd row count", 7, 12, []int{4}},
		{"longer row first", 8, 30, []int{9, 2}},
		{"shorter row first", 8, 30, []int{2, 9}},
		{"empty rows between full ones", 11, 20, []int{0, 6, 0, 0, 7}},
		{"ragged, odd count", 101, 64, []int{27, 18, 12, 8, 0, 1, 27, 3, 19}},
		{"wide: ghost columns past the block", 40, 75, []int{12, 18, 27}},
		{"tall", 75, 10, []int{3, 10, 1}},
	} {
		requireMulVecMatchesReference(t, tc.name, raggedCSR(t, tc.nrows, tc.ncols, tc.lens, uint64(seed+1)), uint64(100+seed))
	}
}

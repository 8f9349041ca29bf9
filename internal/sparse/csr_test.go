package sparse

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"heterohpc/internal/stats"
)

func TestCSRFromCOOBasic(t *testing.T) {
	var c COO
	c.Add(0, 0, 2)
	c.Add(1, 1, 3)
	c.Add(0, 1, 1)
	c.Add(0, 0, 4) // duplicate, must sum
	m, err := NewCSRFromCOO(2, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	d := m.Dense()
	want := [][]float64{{6, 1}, {0, 3}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestCSRFromCOOEmptyRows(t *testing.T) {
	var c COO
	c.Add(3, 0, 1)
	m, err := NewCSRFromCOO(5, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		n := m.RowPtr[r+1] - m.RowPtr[r]
		want := 0
		if r == 3 {
			want = 1
		}
		if n != want {
			t.Fatalf("row %d has %d entries", r, n)
		}
	}
}

func TestCSRFromCOOValidation(t *testing.T) {
	var c COO
	c.Add(5, 0, 1)
	if _, err := NewCSRFromCOO(2, 2, &c); err == nil {
		t.Error("out-of-range row accepted")
	}
	c.Reset()
	c.Add(0, 5, 1)
	if _, err := NewCSRFromCOO(2, 2, &c); err == nil {
		t.Error("out-of-range col accepted")
	}
}

// TestCSRFromCOORejectsRaggedAndOversized covers the up-front guards: a COO
// whose three slices disagree, and sizes beyond the builder's int32 arrays.
func TestCSRFromCOORejectsRaggedAndOversized(t *testing.T) {
	for name, c := range map[string]*COO{
		"short cols": {Rows: []int{0, 1}, Cols: []int{0}, Vals: []float64{1, 2}},
		"short vals": {Rows: []int{0, 1}, Cols: []int{0, 1}, Vals: []float64{1}},
		"short rows": {Rows: []int{0}, Cols: []int{0, 1}, Vals: []float64{1, 2}},
	} {
		if _, err := NewCSRFromCOO(2, 2, c); err == nil || !strings.Contains(err.Error(), "COO has") {
			t.Errorf("%s: err = %v, want a length-mismatch error", name, err)
		}
	}
	for _, dim := range [][2]int{{math.MaxInt32 + 1, 1}, {1, math.MaxInt32 + 1}} {
		if _, err := NewCSRFromCOO(dim[0], dim[1], &COO{}); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("%dx%d: err = %v, want an int32-range error", dim[0], dim[1], err)
		}
	}
}

// refCSRFromCOO is the comparison-sort construction NewCSRFromCOO used
// before buildPattern, kept as the oracle for it: triplets stably sorted by
// (row, col), duplicates summed from zero in input order.
func refCSRFromCOO(nrows, ncols int, c *COO) *CSR {
	idx := make([]int, c.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if c.Rows[ia] != c.Rows[ib] {
			return c.Rows[ia] < c.Rows[ib]
		}
		return c.Cols[ia] < c.Cols[ib]
	})
	m := &CSR{NRows: nrows, NCols: ncols, RowPtr: make([]int, nrows+1)}
	for k, i := range idx {
		if k == 0 || c.Rows[i] != c.Rows[idx[k-1]] || c.Cols[i] != c.Cols[idx[k-1]] {
			m.Col = append(m.Col, c.Cols[i])
			m.Val = append(m.Val, 0)
			m.RowPtr[c.Rows[i]+1] = len(m.Col)
		}
		m.Val[len(m.Val)-1] += c.Vals[i]
	}
	for r := 1; r <= nrows; r++ {
		if m.RowPtr[r] < m.RowPtr[r-1] {
			m.RowPtr[r] = m.RowPtr[r-1]
		}
	}
	return m
}

// requireSameCSR fails unless got and want agree in shape, pattern and, bit
// for bit, values.
func requireSameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.NRows != want.NRows || got.NCols != want.NCols {
		t.Fatalf("shape %dx%d, want %dx%d", got.NRows, got.NCols, want.NRows, want.NCols)
	}
	if !intsEqual(got.RowPtr, want.RowPtr) {
		t.Fatalf("RowPtr %v, want %v", got.RowPtr, want.RowPtr)
	}
	if !intsEqual(got.Col, want.Col) {
		t.Fatalf("Col %v, want %v", got.Col, want.Col)
	}
	if len(got.Val) != len(want.Val) {
		t.Fatalf("%d values, want %d", len(got.Val), len(want.Val))
	}
	for i := range want.Val {
		if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			t.Fatalf("Val[%d] = %v, want %v", i, got.Val[i], want.Val[i])
		}
	}
}

// TestBuildPatternMatchesSortReference is the oracle test of the linear
// builder: on seeded random COOs of every awkward shape it must reproduce
// the sort-based pattern exactly, send every triplet to the slot holding
// its own column inside its own row, and (through NewCSRFromCOO) sum
// duplicates in input order.
func TestBuildPatternMatchesSortReference(t *testing.T) {
	shapes := []struct {
		name                string
		nrows, ncols, ntrip int
		colLo               int // columns are drawn from [colLo, ncols)
	}{
		{"heavy duplicates", 6, 7, 400, 0},
		{"mostly empty rows", 60, 60, 25, 0},
		{"one row", 1, 40, 120, 0},
		{"one column", 30, 1, 50, 0},
		{"zero triplets", 5, 5, 0, 0},
		{"zero rows", 0, 3, 0, 0},
		{"ghost-only columns", 10, 25, 150, 10},
		{"stencil-sized rows", 40, 90, 40 * 64, 0},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := stats.NewRNG(seed*7919 + uint64(sh.ntrip))
			var c COO
			for k := 0; k < sh.ntrip; k++ {
				c.Add(rng.Intn(sh.nrows), sh.colLo+rng.Intn(sh.ncols-sh.colLo), rng.Range(-1, 1))
			}
			want := refCSRFromCOO(sh.nrows, sh.ncols, &c)
			got, err := NewCSRFromCOO(sh.nrows, sh.ncols, &c)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
			requireSameCSR(t, got, want)

			rowPtr, col, slot, err := refBuildPattern(sh.nrows, sh.ncols, c.Rows, c.Cols)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
			if !intsEqual(rowPtr, want.RowPtr) || !intsEqual(col, want.Col) {
				t.Fatalf("%s seed %d: pattern differs from the reference", sh.name, seed)
			}
			for k, s32 := range slot {
				s := int(s32)
				if r := c.Rows[k]; s < rowPtr[r] || s >= rowPtr[r+1] || col[s] != c.Cols[k] {
					t.Fatalf("%s seed %d: triplet %d (%d,%d) sent to slot %d",
						sh.name, seed, k, r, c.Cols[k], s)
				}
			}

			// The int32 instantiation (DistMatrix's) is the same builder.
			rows32, cols32 := make([]int32, c.Len()), make([]int32, c.Len())
			for k := range rows32 {
				rows32[k], cols32[k] = int32(c.Rows[k]), int32(c.Cols[k])
			}
			rowPtr32, col32, slot32, err := refBuildPattern(sh.nrows, sh.ncols, rows32, cols32)
			if err != nil || !intsEqual(rowPtr32, rowPtr) || !intsEqual(col32, col) || !slices.Equal(slot32, slot) {
				t.Fatalf("%s seed %d: int32 builder disagrees with int builder (err %v)", sh.name, seed, err)
			}
		}
	}
}

func TestCOOReset(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSlotAndAddAt(t *testing.T) {
	var c COO
	c.Add(0, 2, 1)
	c.Add(0, 0, 1)
	c.Add(1, 1, 1)
	m, _ := NewCSRFromCOO(2, 3, &c)
	if s := m.Slot(0, 2); s < 0 || m.Val[s] != 1 {
		t.Fatalf("Slot(0,2) = %d", s)
	}
	if s := m.Slot(0, 1); s != -1 {
		t.Fatalf("missing entry returned slot %d", s)
	}
	m.AddAt(0, 0, 5)
	if d := m.Dense(); d[0][0] != 6 {
		t.Fatalf("AddAt result %v", d[0][0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddAt outside pattern did not panic")
		}
	}()
	m.AddAt(1, 0, 1)
}

func TestZeroValsKeepsPattern(t *testing.T) {
	var c COO
	c.Add(0, 0, 7)
	m, _ := NewCSRFromCOO(1, 1, &c)
	m.ZeroVals()
	if m.NNZ() != 1 || m.Val[0] != 0 {
		t.Fatalf("ZeroVals wrong: nnz=%d val=%v", m.NNZ(), m.Val)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 20; trial++ {
		nr := rng.Intn(8) + 1
		nc := rng.Intn(8) + 1
		var c COO
		for k := 0; k < rng.Intn(30); k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc), rng.Range(-2, 2))
		}
		m, err := NewCSRFromCOO(nr, nc, &c)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, nc)
		for i := range x {
			x[i] = rng.Range(-1, 1)
		}
		y := make([]float64, nr)
		m.MulVec(x, y, NopCharger{})
		d := m.Dense()
		for r := 0; r < nr; r++ {
			var want float64
			for j := 0; j < nc; j++ {
				want += d[r][j] * x[j]
			}
			if math.Abs(y[r]-want) > 1e-12 {
				t.Fatalf("trial %d row %d: %v vs %v", trial, r, y[r], want)
			}
		}
	}
}

func TestMulVecDimPanic(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	m, _ := NewCSRFromCOO(1, 1, &c)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 1), NopCharger{})
}

func TestDiagonal(t *testing.T) {
	var c COO
	c.Add(0, 0, 4)
	c.Add(1, 0, 2)
	m, _ := NewCSRFromCOO(2, 2, &c)
	d := make([]float64, 2)
	m.Diagonal(d)
	if d[0] != 4 || d[1] != 0 {
		t.Fatalf("diagonal %v", d)
	}
}

func TestClone(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	m, _ := NewCSRFromCOO(1, 1, &c)
	cl := m.Clone()
	cl.Val[0] = 9
	if m.Val[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

type chargeRecorder struct{ flops, bytes float64 }

func (c *chargeRecorder) ChargeCompute(f, b float64) { c.flops += f; c.bytes += b }

func TestMulVecCharges(t *testing.T) {
	var c COO
	c.Add(0, 0, 1)
	c.Add(0, 1, 1)
	m, _ := NewCSRFromCOO(1, 2, &c)
	rec := &chargeRecorder{}
	m.MulVec([]float64{1, 2}, make([]float64, 1), rec)
	if rec.flops != 4 {
		t.Fatalf("charged %v flops, want 4", rec.flops)
	}
	if rec.bytes <= 0 {
		t.Fatal("charged no bytes")
	}
}

// Property: pattern column indices are sorted and RowPtr is monotone for
// arbitrary triplet sets.
func TestCSRInvariantsProperty(t *testing.T) {
	f := func(seed uint64, nTripRaw uint8) bool {
		rng := stats.NewRNG(seed)
		const nr, nc = 6, 7
		var c COO
		for k := 0; k < int(nTripRaw); k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc), rng.Range(-1, 1))
		}
		m, err := NewCSRFromCOO(nr, nc, &c)
		if err != nil {
			return false
		}
		if m.RowPtr[0] != 0 || m.RowPtr[nr] != m.NNZ() {
			return false
		}
		for r := 0; r < nr; r++ {
			if m.RowPtr[r+1] < m.RowPtr[r] {
				return false
			}
			for i := m.RowPtr[r] + 1; i < m.RowPtr[r+1]; i++ {
				if m.Col[i] <= m.Col[i-1] {
					return false // unsorted or duplicate column
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVecOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(3, 2, x, y, NopCharger{})
	if y[0] != 12 || y[2] != 36 {
		t.Fatalf("axpy %v", y)
	}
	Scale(3, 0.5, y, NopCharger{})
	if y[0] != 6 {
		t.Fatalf("scale %v", y)
	}
	dst := make([]float64, 3)
	CopyN(3, dst, x, NopCharger{})
	if dst[1] != 2 {
		t.Fatalf("copy %v", dst)
	}
	if d := DotLocal(3, x, x, NopCharger{}); d != 14 {
		t.Fatalf("dot %v", d)
	}
	if n := Norm2Local(3, x, NopCharger{}); math.Abs(n-math.Sqrt(14)) > 1e-14 {
		t.Fatalf("norm %v", n)
	}
	// Prefix-only application.
	z := []float64{1, 1}
	Axpy(1, 1, []float64{5, 5}, z, NopCharger{})
	if z[1] != 1 {
		t.Fatal("Axpy touched beyond prefix")
	}
}

func BenchmarkMulVec(b *testing.B) {
	// A 27-point-stencil-like matrix of 10k rows.
	rng := stats.NewRNG(3)
	const n = 10000
	var c COO
	for r := 0; r < n; r++ {
		for k := 0; k < 27; k++ {
			c.Add(r, (r+k*37)%n, rng.Range(-1, 1))
		}
	}
	m, _ := NewCSRFromCOO(n, n, &c)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y, NopCharger{})
	}
}

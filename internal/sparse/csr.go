// Package sparse provides the distributed sparse linear algebra that
// Trilinos/Epetra provided in the paper's stack: compressed sparse row
// matrices with a fixed symbolic pattern and fast numeric refill, row
// distribution across ranks, ghost-value importers for matrix-vector
// products, and triplet exporters for finite-element assembly of off-rank
// rows ("matrices and vectors are distributed and need to be updated via a
// message passing interface", §IV-C).
//
// Compute kernels report their operation counts through a Charger so the
// virtual clock can translate real work into platform seconds.
package sparse

import (
	"fmt"
	"math"
	"slices"
)

// Charger receives operation counts from compute kernels. *mp.Rank
// implements it; serial callers use NopCharger.
type Charger interface {
	ChargeCompute(flops, bytes float64)
}

// NopCharger discards charges (serial / un-modelled execution).
type NopCharger struct{}

// ChargeCompute implements Charger.
func (NopCharger) ChargeCompute(flops, bytes float64) {}

// COO accumulates assembly triplets with global or local indices.
type COO struct {
	Rows, Cols []int
	Vals       []float64
}

// Add appends one triplet.
func (c *COO) Add(row, col int, v float64) {
	c.Rows = append(c.Rows, row)
	c.Cols = append(c.Cols, col)
	c.Vals = append(c.Vals, v)
}

// Grow reserves capacity for n additional triplets, so a sized assembly
// loop appends without incremental reallocation.
func (c *COO) Grow(n int) {
	need := len(c.Rows) + n
	if need <= cap(c.Rows) {
		return
	}
	rows := make([]int, len(c.Rows), need)
	copy(rows, c.Rows)
	c.Rows = rows
	cols := make([]int, len(c.Cols), need)
	copy(cols, c.Cols)
	c.Cols = cols
	vals := make([]float64, len(c.Vals), need)
	copy(vals, c.Vals)
	c.Vals = vals
}

// Len returns the triplet count.
func (c *COO) Len() int { return len(c.Rows) }

// Reset clears the triplets, keeping capacity.
func (c *COO) Reset() {
	c.Rows = c.Rows[:0]
	c.Cols = c.Cols[:0]
	c.Vals = c.Vals[:0]
}

// CSR is a compressed-sparse-row matrix. The symbolic pattern (RowPtr, Col,
// with column indices sorted within each row) is immutable after
// construction; Val may be refilled for matrices whose coefficients change
// every time step, which is how the applications keep the per-step assembly
// cheap without re-sorting triplets.
type CSR struct {
	NRows, NCols int
	RowPtr       []int
	Col          []int
	Val          []float64
}

// NewCSRFromCOO builds a CSR from triplets, summing duplicates in input
// order. Column indices within each row come out sorted. Symbolic
// construction runs once per space setup, so vcharge's constructor exemption
// applies; per-step numeric refills go through charged paths
// (fem.AssembleMatrix, MulVec).
func NewCSRFromCOO(nrows, ncols int, c *COO) (*CSR, error) {
	if len(c.Cols) != len(c.Rows) || len(c.Vals) != len(c.Rows) {
		return nil, fmt.Errorf("sparse: COO has %d rows, %d cols, %d vals",
			len(c.Rows), len(c.Cols), len(c.Vals))
	}
	for i := range c.Rows {
		if c.Rows[i] < 0 || c.Rows[i] >= nrows {
			return nil, fmt.Errorf("sparse: row %d out of %d", c.Rows[i], nrows)
		}
		if c.Cols[i] < 0 || c.Cols[i] >= ncols {
			return nil, fmt.Errorf("sparse: col %d out of %d", c.Cols[i], ncols)
		}
	}
	rowPtr, col, slot, err := buildPattern(nrows, ncols, c.Rows, c.Cols)
	if err != nil {
		return nil, err
	}
	m := &CSR{NRows: nrows, NCols: ncols, RowPtr: rowPtr, Col: col, Val: make([]float64, len(col))}
	for t, s := range slot {
		m.Val[s] += c.Vals[t]
	}
	return m, nil
}

// buildPattern turns in-range triplet coordinates into a CSR pattern in
// linear time and returns, beside it, the value slot every triplet
// accumulates into. A stable counting sort groups the triplets by row;
// within a row a per-column stamp collapses duplicates, so only the row's
// distinct columns (27 for a trilinear stencil) are sorted. The int32 work
// arrays and slots bound the row, column and triplet counts.
func buildPattern[I int | int32](nrows, ncols int, rows, cols []I) (rowPtr, col []int, slot []int32, err error) {
	if nrows > math.MaxInt32 || ncols > math.MaxInt32 || len(rows) > math.MaxInt32 {
		return nil, nil, nil, fmt.Errorf("sparse: %dx%d with %d triplets exceeds the int32 index range",
			nrows, ncols, len(rows))
	}
	// perm lists the triplets row by row, input order kept within a row;
	// the fill leaves end[r] at the end of row r's stretch.
	end := make([]int32, nrows+1)
	for _, r := range rows {
		end[r+1]++
	}
	for r := 0; r < nrows; r++ {
		end[r+1] += end[r]
	}
	perm := make([]int32, len(rows))
	for t, r := range rows {
		perm[end[r]] = int32(t)
		end[r]++
	}

	rowPtr = make([]int, nrows+1)
	slot = make([]int32, len(rows))
	// seen[c] is 1 + the slot of column c's latest entry: a value above the
	// current row's first slot means c already occurs in this row.
	seen := make([]int32, ncols)
	var uniq []int32
	lo := int32(0)
	for r := 0; r < nrows; r++ {
		trips := perm[lo:end[r]]
		lo = end[r]
		base := int32(rowPtr[r])
		uniq = uniq[:0]
		for _, t := range trips {
			if c := cols[t]; seen[c] <= base {
				seen[c] = base + 1
				uniq = append(uniq, int32(c))
			}
		}
		slices.Sort(uniq)
		for j, c := range uniq {
			seen[c] = base + int32(j) + 1
		}
		for _, t := range trips {
			slot[t] = seen[cols[t]] - 1
		}
		// The row's triplet list is spent: park its sorted columns there
		// until the total is known and col can be sized exactly.
		copy(trips, uniq)
		rowPtr[r+1] = rowPtr[r] + len(uniq)
	}
	col = make([]int, rowPtr[nrows])
	lo = 0
	for r := 0; r < nrows; r++ {
		for j, c := range perm[lo:][:rowPtr[r+1]-rowPtr[r]] {
			col[rowPtr[r]+j] = int(c)
		}
		lo = end[r]
	}
	return rowPtr, col, slot, nil
}

// NNZ returns the stored entry count.
func (m *CSR) NNZ() int { return len(m.Val) }

// ZeroVals resets all stored values, keeping the pattern.
func (m *CSR) ZeroVals() {
	for i := range m.Val {
		m.Val[i] = 0
	}
}

// Slot returns the value index of entry (row, col), or -1 if the pattern
// has no such entry. Columns are sorted per row, so this is a binary search.
func (m *CSR) Slot(row, col int) int {
	lo, hi := m.RowPtr[row], m.RowPtr[row+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.Col[mid] < col:
			lo = mid + 1
		case m.Col[mid] > col:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// AddAt accumulates v into entry (row, col), which must exist in the
// pattern.
func (m *CSR) AddAt(row, col int, v float64) {
	s := m.Slot(row, col)
	if s < 0 {
		panic(fmt.Sprintf("sparse: entry (%d,%d) not in pattern", row, col))
	}
	m.Val[s] += v
}

// MulVec computes y = A·x and charges 2·nnz flops plus the CSR streaming
// traffic to ch. len(x) must be NCols and len(y) must be NRows.
func (m *CSR) MulVec(x, y []float64, ch Charger) {
	if len(x) != m.NCols || len(y) != m.NRows {
		panic(fmt.Sprintf("sparse: MulVec dims %d,%d for %dx%d matrix",
			len(x), len(y), m.NRows, m.NCols))
	}
	// Two adjacent rows per pass: each row still sums its own entries first
	// to last into its own accumulator, so y is what a row-at-a-time loop
	// gives bit for bit, while the two dependent add chains overlap. The
	// per-row re-slices leave the x gather as the only bounds check.
	r := 0
	for ; r+1 < m.NRows; r += 2 {
		p0, p1, p2 := m.RowPtr[r], m.RowPtr[r+1], m.RowPtr[r+2]
		c0, v0 := m.Col[p0:p1], m.Val[p0:p1]
		c1, v1 := m.Col[p1:p2], m.Val[p1:p2]
		var s0, s1 float64
		k := 0
		for ; k < len(c0) && k < len(c1); k++ {
			s0 += v0[k] * x[c0[k]]
			s1 += v1[k] * x[c1[k]]
		}
		y[r] = dotFrom(s0, c0[k:], v0[k:], x)
		y[r+1] = dotFrom(s1, c1[k:], v1[k:], x)
	}
	if r < m.NRows {
		p0, p1 := m.RowPtr[r], m.RowPtr[r+1]
		y[r] = dotFrom(0, m.Col[p0:p1], m.Val[p0:p1], x)
	}
	nnz := float64(m.NNZ())
	// 12 bytes/nnz (8B value + 4B index) + x gathers + y stores.
	ch.ChargeCompute(2*nnz, 20*nnz+8*float64(m.NRows))
}

// dotFrom returns sum + Σ val[k]·x[col[k]], accumulated first to last.
func dotFrom(sum float64, col []int, val, x []float64) float64 {
	val = val[:len(col)]
	for k, c := range col {
		sum += val[k] * x[c]
	}
	return sum
}

// Diagonal extracts the matrix diagonal into d (len NRows); missing
// diagonal entries yield 0.
func (m *CSR) Diagonal(d []float64) {
	if len(d) != m.NRows {
		panic("sparse: Diagonal length mismatch")
	}
	for r := range d {
		d[r] = 0
		if s := m.Slot(r, r); s >= 0 {
			d[r] = m.Val[s]
		}
	}
}

// Clone returns a deep copy sharing no storage.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		NRows: m.NRows, NCols: m.NCols,
		RowPtr: append([]int(nil), m.RowPtr...),
		Col:    append([]int(nil), m.Col...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// Dense expands the matrix to a dense row-major [][]float64 (tests only).
//
//heterolint:allow vcharge test-support expansion, never on a simulated compute path
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.NRows)
	for r := range d {
		d[r] = make([]float64, m.NCols)
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			d[r][m.Col[i]] += m.Val[i]
		}
	}
	return d
}

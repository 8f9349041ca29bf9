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

// COO accumulates assembly contributions with global or local indices, in
// one of two forms. The triplet form (Add) lists (Rows[t], Cols[t], Vals[t]).
// The block form (AddBlock) lists square blocks of one size K — K ids and
// K·K row-major values each, entry (a, b) contributing to row ids[a], column
// ids[b] — which is what a finite-element assembly produces: 64 B of indices
// per trilinear element where its 64 triplets take 1 KiB. Form is storage,
// not meaning: contribution t is Vals[t] either way, and a block COO and its
// expansion build, refill and fail identically everywhere a COO is accepted.
// A COO holds triplets or blocks, never both; the zero value and a Reset COO
// are neither yet. Rows and Cols are empty in the block form.
type COO struct {
	Rows, Cols []int
	Vals       []float64
	// k > 0 is the block form: block b couples ids[b*k:][:k] and owns
	// Vals[b*k*k:][:k*k].
	k   int
	ids []int
	// Like the rest of a COO, the build scratch is reused from one assembly
	// to the next.
	segScratch
}

// Blocks is an assembly's structure without its values: square blocks of
// size K, block b coupling IDs[b*K:][:K] — the ids of a block-form COO
// alone. It is what a finite-element space knows of its operators before
// any is evaluated: NewDistMatrixBlocks builds their matrices from it, and a
// Refill streams each one's values in, K² per block, in the same order.
type Blocks struct {
	K   int
	IDs []int
	// The build scratch is kept with the blocks, so every matrix built from
	// them classifies into the same arrays.
	segScratch
}

// segScratch is what the builds from one assembly keep between them: the
// per-segment classification (see classify) — the local row or export marker
// of every row segment, and the exported segments — the pair streams the
// last build sent, and a value array a frozen matrix dropped.
type segScratch struct {
	segRows, exported []int32
	// sent[i] is the (row, col) pair stream last sent to export peer
	// sentTo[i] (ascending). A later build re-sends it when it would spell
	// the same ints, so it is never written after its first send.
	sentTo []int
	sent   [][]int
	// spare is the value array of a matrix that Freeze made adopt another
	// rank's: the next matrix built from the assembly takes it, zeroed, if it
	// has the same length.
	spare []float64
}

func (s *segScratch) scratch() *segScratch { return s }

// assembly is what a build reads of an assembly's structure: the row
// segments of a COO of either form or of Blocks, and the scratch kept with
// them.
type assembly interface {
	segments() (k int, rows, cols []int)
	scratch() *segScratch
}

// contributions returns the contribution count of a: K² per block, one per
// triplet.
func contributions(a assembly) int {
	k, rows, _ := a.segments()
	return k * len(rows)
}

// segments presents the blocks as row segments (see COO.segments).
func (b *Blocks) segments() (k int, rows, cols []int) { return b.K, b.IDs, b.IDs }

// Add appends one triplet. It panics on a COO holding blocks.
func (c *COO) Add(row, col int, v float64) {
	if c.k != 0 {
		panic("sparse: Add on a COO holding blocks")
	}
	if len(c.Rows) == 0 && cap(c.Rows) < cap(c.Vals) {
		c.Rows, c.Cols = make([]int, 0, cap(c.Vals)), make([]int, 0, cap(c.Vals))
	}
	c.Rows = append(c.Rows, row)
	c.Cols = append(c.Cols, col)
	c.Vals = append(c.Vals, v)
}

// AddBlock appends one square block: entry (a, b) of the len(ids)² row-major
// vals contributes to row ids[a], column ids[b]. It panics on a COO holding
// triplets or blocks of another size.
func (c *COO) AddBlock(ids []int, vals []float64) {
	k := len(ids)
	if k == 0 || len(vals) != k*k {
		panic(fmt.Sprintf("sparse: AddBlock with %d ids and %d values", k, len(vals)))
	}
	if c.k != k {
		if c.k != 0 || len(c.Rows) != 0 {
			panic("sparse: AddBlock on a COO holding triplets or blocks of another size")
		}
		c.k = k
		if n := cap(c.Vals) / k; cap(c.ids) < n {
			c.ids = make([]int, 0, n)
		}
	}
	c.ids = append(c.ids, ids...)
	c.Vals = append(c.Vals, vals...)
}

// Grow reserves capacity for n additional contributions, so a sized assembly
// loop appends without incremental reallocation. While the form is still
// open only Vals can be reserved; the first Add or AddBlock then sizes its
// form's index arrays to match.
func (c *COO) Grow(n int) {
	c.Vals = reserve(c.Vals, n)
	switch {
	case c.k > 0:
		c.ids = reserve(c.ids, (n+c.k*c.k-1)/(c.k*c.k)*c.k)
	case len(c.Rows) > 0:
		c.Rows, c.Cols = reserve(c.Rows, n), reserve(c.Cols, n)
	}
}

// reserve returns s with room for n more elements, reallocating to exactly
// that when it has less.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Len returns the contribution count: triplets, or K² per block.
func (c *COO) Len() int {
	if c.k > 0 {
		return len(c.ids) * c.k
	}
	return len(c.Rows)
}

// Reset clears the contributions and leaves the form open, keeping capacity.
func (c *COO) Reset() {
	c.Rows = c.Rows[:0]
	c.Cols = c.Cols[:0]
	c.Vals = c.Vals[:0]
	c.ids = c.ids[:0]
	c.k = 0
}

// segments presents either form as row segments of width k, the unit every
// consumer works in: segment s lies in row rows[s], spans the k columns
// cols[s-s%k:][:k], and owns contributions s*k .. s*k+k-1. A triplet is a
// segment of width 1; a block is k segments over its own ids, so rows and
// cols are then the same slice. len(rows) == len(cols) either way.
func (c *COO) segments() (k int, rows, cols []int) {
	if c.k > 0 {
		return c.k, c.ids, c.ids
	}
	return 1, c.Rows, c.Cols
}

// CSR is a compressed-sparse-row matrix. The symbolic pattern (RowPtr, Col,
// with column indices sorted within each row) is immutable after
// construction; Val may be refilled for matrices whose coefficients change
// every time step, which is how the applications keep the per-step assembly
// cheap without re-sorting triplets. A frozen CSR's Val may be another
// rank's too (DistMatrix.Freeze): every method that writes it panics first.
type CSR struct {
	NRows, NCols int
	RowPtr       []int
	Col          []int
	Val          []float64
	frozen       bool
}

// NewCSRFromCOO builds a CSR from a COO of either form, summing duplicates
// in input order. Column indices within each row come out sorted. Symbolic
// construction runs once per space setup, so vcharge's constructor exemption
// applies; per-step numeric refills go through charged paths
// (fem.AssembleMatrix, MulVec).
func NewCSRFromCOO(nrows, ncols int, c *COO) (*CSR, error) {
	k, rows, cols := c.segments()
	if len(cols) != len(rows) || len(rows)%k != 0 || len(c.Vals) != len(rows)*k {
		return nil, fmt.Errorf("sparse: COO has %d rows, %d cols, %d vals",
			len(rows)*k, len(cols)*k, len(c.Vals))
	}
	for s, r := range rows {
		if r < 0 || r >= nrows {
			return nil, fmt.Errorf("sparse: row %d out of %d", r, nrows)
		}
		for _, col := range cols[s-s%k:][:k] {
			if col < 0 || col >= ncols {
				return nil, fmt.Errorf("sparse: col %d out of %d", col, ncols)
			}
		}
	}
	in := rowSegments{k: k, rows: toInt32(rows), slots: make([]int32, c.Len())}
	in.cols = in.rows // a block's ids are its rows and its columns
	if c.k == 0 {
		in.cols = toInt32(cols)
	}
	rowPtr, col, err := buildPattern(nrows, ncols, &in)
	if err != nil {
		return nil, err
	}
	m := &CSR{NRows: nrows, NCols: ncols, RowPtr: rowPtr, Col: col, Val: make([]float64, len(col))}
	for t, s := range in.slots {
		m.Val[s] += c.Vals[t]
	}
	return m, nil
}

func toInt32(v []int) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = int32(x)
	}
	return out
}

// rowSegments is what buildPattern builds from, in local indices: the row
// segments of an assembly COO (see COO.segments), then segments of width 1,
// the (row, col) pairs peers shipped for rows this rank owns. The builder
// writes every contribution's value slot straight to where it is kept.
type rowSegments struct {
	k int
	// rows[s] is segment s's row, negative when its row lives on another
	// rank and the segment is no part of this pattern; cols[s-s%k:][:k] are
	// its columns and slots[s*k:][:k] receives their value slots.
	rows, cols []int32
	slots      []int32
	// Pair j lies at (pairRows[j], pairCols[j]); pairSlots[j] receives its
	// value slot.
	pairRows, pairCols []int32
	pairSlots          []int
}

// columns returns the columns of segment s, pairs numbered after the COO's
// segments.
func (in *rowSegments) columns(s int) []int32 {
	if j := s - len(in.rows); j >= 0 {
		return in.pairCols[j : j+1]
	}
	return in.cols[s-s%in.k:][:in.k]
}

// buildPattern turns in-range row segments into a CSR pattern in linear time
// and tells every contribution the value slot it accumulates into. A stable
// counting sort groups the segments by row; within a row a per-column stamp
// collapses duplicates, so only the row's distinct columns (27 for a
// trilinear stencil) are sorted. Nothing here is sized by the contribution
// count: the work arrays have one int32 per segment, row and column, which
// bounds those counts and the slots.
func buildPattern(nrows, ncols int, in *rowSegments) (rowPtr, col []int, err error) {
	nSeg, nLocal := len(in.rows), 0
	for _, r := range in.rows {
		if r >= 0 {
			nLocal++
		}
	}
	if n := nLocal*in.k + len(in.pairRows); nrows > math.MaxInt32 || ncols > math.MaxInt32 || n > math.MaxInt32 {
		return nil, nil, fmt.Errorf("sparse: %dx%d with %d triplets exceeds the int32 index range",
			nrows, ncols, n)
	}
	// perm lists the segments row by row, input order kept within a row;
	// the fill leaves end[r] at the end of row r's stretch.
	end := make([]int32, nrows+1)
	for _, r := range in.rows {
		if r >= 0 {
			end[r+1]++
		}
	}
	for _, r := range in.pairRows {
		end[r+1]++
	}
	for r := 0; r < nrows; r++ {
		end[r+1] += end[r]
	}
	perm := make([]int32, nLocal+len(in.pairRows))
	for s, r := range in.rows {
		if r >= 0 {
			perm[end[r]] = int32(s)
			end[r]++
		}
	}
	for j, r := range in.pairRows {
		perm[end[r]] = int32(nSeg + j)
		end[r]++
	}

	// A segment can bring a row up to k new columns, so the rows' sizes are
	// counted before col is allocated, exactly: seen[c] == r+1 says column
	// c is already counted in row r.
	rowPtr = make([]int, nrows+1)
	seen := make([]int32, ncols)
	lo := int32(0)
	for r := 0; r < nrows; r++ {
		mark, n := int32(r+1), 0
		for _, s := range perm[lo:end[r]] {
			for _, c := range in.columns(int(s)) {
				if seen[c] != mark {
					seen[c] = mark
					n++
				}
			}
		}
		lo = end[r]
		rowPtr[r+1] = rowPtr[r] + n
	}

	// From here seen[c] is 1 + the slot of column c's latest entry: a value
	// above the current row's first slot means c already occurs in this row.
	col = make([]int, rowPtr[nrows])
	clear(seen)
	lo = 0
	for r := 0; r < nrows; r++ {
		segs := perm[lo:end[r]]
		lo = end[r]
		base := int32(rowPtr[r])
		row := col[rowPtr[r]:rowPtr[r]:rowPtr[r+1]]
		for _, s := range segs {
			for _, c := range in.columns(int(s)) {
				if seen[c] <= base {
					seen[c] = base + 1
					row = append(row, int(c))
				}
			}
		}
		slices.Sort(row)
		for j, c := range row {
			seen[c] = base + int32(j) + 1
		}
		for _, s := range segs {
			if j := int(s) - nSeg; j >= 0 {
				in.pairSlots[j] = int(seen[in.pairCols[j]] - 1)
				continue
			}
			out := in.slots[int(s)*in.k:][:in.k]
			for j, c := range in.columns(int(s)) {
				out[j] = seen[c] - 1
			}
		}
	}
	return rowPtr, col, nil
}

// NNZ returns the stored entry count.
func (m *CSR) NNZ() int { return len(m.Val) }

// mustWrite panics, naming op, before a write to frozen values.
func (m *CSR) mustWrite(op string) {
	if m.frozen {
		panic("sparse: " + op + " on a frozen matrix")
	}
}

// ZeroVals resets all stored values, keeping the pattern.
func (m *CSR) ZeroVals() {
	m.mustWrite("ZeroVals")
	for i := range m.Val {
		m.Val[i] = 0
	}
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
			s0 += float64(v0[k] * x[c0[k]])
			s1 += float64(v1[k] * x[c1[k]])
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
	ch.ChargeCompute(2*nnz, float64(20*nnz)+float64(8*float64(m.NRows)))
}

// dotFrom returns sum + Σ val[k]·x[col[k]], accumulated first to last.
func dotFrom(sum float64, col []int, val, x []float64) float64 {
	val = val[:len(col)]
	for k, c := range col {
		sum += float64(val[k] * x[c])
	}
	return sum
}

// Clone returns a deep copy sharing no storage, not frozen.
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

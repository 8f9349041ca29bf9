package krylov

import (
	"fmt"
	"math"
	"slices"

	"heterohpc/internal/sparse"
)

// Identity is the no-op preconditioner.
type Identity struct{}

// Setup implements Preconditioner.
func (Identity) Setup() error { return nil }

// Apply implements Preconditioner.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// NewPrecond builds the preconditioner named name — "ilu0", "jacobi", "sgs"
// or "none" — over the first n rows/columns of a (the owned square block);
// the caller adds its context to the error an unknown name returns.
func NewPrecond(name string, a *sparse.CSR, n int, ch sparse.Charger) (Preconditioner, error) {
	switch name {
	case "ilu0":
		return NewILU0(a, n, ch), nil
	case "jacobi":
		return NewJacobi(a, n, ch), nil
	case "sgs":
		return NewSGS(a, n, ch), nil
	case "none":
		return Identity{}, nil
	}
	return nil, fmt.Errorf("unknown preconditioner %q", name)
}

// blockSplit locates, for each of the first n rows of a, the slot of the
// diagonal entry (-1 when the pattern has none) and the slot that ends the
// row's block columns (< n). Columns are sorted within a row and ghost
// columns (>= n) sort last, so row i's strictly lower part is the slots
// [RowPtr[i], diag[i]), its strictly upper block part (diag[i], end[i]), and
// a sweep needs no per-entry test. The pattern is immutable: preconditioners
// call this once, at construction.
func blockSplit(a *sparse.CSR, n int) (diag, end []int32) {
	if a.NNZ() > math.MaxInt32 {
		panic(fmt.Sprintf("krylov: %d stored entries exceed the int32 slot range", a.NNZ()))
	}
	both := make([]int32, 2*n)
	diag, end = both[:n:n], both[n:]
	for i := 0; i < n; i++ {
		lo := a.RowPtr[i]
		cols := a.Col[lo:a.RowPtr[i+1]]
		d, ok := slices.BinarySearch(cols, i)
		diag[i] = int32(lo + d)
		if !ok {
			diag[i] = -1
		}
		e, _ := slices.BinarySearch(cols, n)
		end[i] = int32(lo + e)
	}
	return diag, end
}

// invertDiagonal fills dinv with the reciprocals of a's diagonal, the
// set-up Jacobi and SGS share.
func invertDiagonal(a *sparse.CSR, diag []int32, dinv []float64) error {
	for i, d := range diag {
		if d < 0 || a.Val[d] == 0 {
			return fmt.Errorf("krylov: zero diagonal at row %d", i)
		}
		dinv[i] = 1 / a.Val[d]
	}
	return nil
}

// Jacobi is diagonal scaling: z = D⁻¹·r over the local owned block. Across
// ranks it is exactly global Jacobi, since the diagonal is always owned.
type Jacobi struct {
	a    *sparse.CSR
	n    int
	ch   sparse.Charger
	diag []int32
	dinv []float64
}

// NewJacobi builds a Jacobi preconditioner over the first n rows/columns of
// a (the owned square block).
func NewJacobi(a *sparse.CSR, n int, ch sparse.Charger) *Jacobi {
	if ch == nil {
		ch = sparse.NopCharger{}
	}
	diag, _ := blockSplit(a, n)
	return &Jacobi{a: a, n: n, ch: ch, diag: diag, dinv: make([]float64, n)}
}

// Setup implements Preconditioner.
func (j *Jacobi) Setup() error {
	if err := invertDiagonal(j.a, j.diag, j.dinv); err != nil {
		return err
	}
	j.ch.ChargeCompute(float64(j.n), 16*float64(j.n))
	return nil
}

// Apply implements Preconditioner.
func (j *Jacobi) Apply(r, z []float64) {
	for i := 0; i < j.n; i++ {
		z[i] = r[i] * j.dinv[i]
	}
	j.ch.ChargeCompute(float64(j.n), 24*float64(j.n))
}

// SGS is a symmetric Gauss–Seidel sweep over the local owned block — the
// zero-overlap additive-Schwarz variant of SSOR across ranks.
type SGS struct {
	a         *sparse.CSR
	n         int
	ch        sparse.Charger
	diag, end []int32 // blockSplit of a
	dinv      []float64
}

// NewSGS builds a symmetric Gauss–Seidel preconditioner over the first n
// rows/columns of a.
func NewSGS(a *sparse.CSR, n int, ch sparse.Charger) *SGS {
	if ch == nil {
		ch = sparse.NopCharger{}
	}
	diag, end := blockSplit(a, n)
	return &SGS{a: a, n: n, ch: ch, diag: diag, end: end, dinv: make([]float64, n)}
}

// Setup implements Preconditioner.
func (s *SGS) Setup() error {
	if err := invertDiagonal(s.a, s.diag, s.dinv); err != nil {
		return err
	}
	s.ch.ChargeCompute(float64(s.n), 16*float64(s.n))
	return nil
}

// Apply implements Preconditioner: z = (D+U)⁻¹·D·(D+L)⁻¹·r restricted to the
// owned block (ghost columns are ignored, making this block-local).
func (s *SGS) Apply(r, z []float64) {
	a := s.a
	// Forward sweep: (D+L)·y = r.
	for i := 0; i < s.n; i++ {
		lo, d := a.RowPtr[i], int(s.diag[i])
		col, val := a.Col[lo:d], a.Val[lo:d]
		sum := r[i]
		for k, c := range col {
			sum -= val[k] * z[c]
		}
		z[i] = sum * s.dinv[i]
	}
	// Backward sweep: (D+U)·z = D·y.
	for i := s.n - 1; i >= 0; i-- {
		d, e := int(s.diag[i])+1, int(s.end[i])
		col, val := a.Col[d:e], a.Val[d:e]
		var sum float64
		for k, c := range col {
			sum += val[k] * z[c]
		}
		z[i] -= sum * s.dinv[i]
	}
	nnz := float64(a.NNZ())
	s.ch.ChargeCompute(4*nnz, 2*20*nnz)
}

// ILU0 is a zero-fill incomplete LU factorisation of the local owned block,
// the workhorse preconditioner of the paper's solves (Ifpack ILU). Across
// ranks it acts as block-Jacobi/additive-Schwarz with zero overlap.
type ILU0 struct {
	a  *sparse.CSR
	n  int
	ch sparse.Charger
	// lu holds the factor values aligned with a's pattern (block columns
	// only); diag, end are a's blockSplit, so diag[i] is the slot of U[i,i].
	lu        []float64
	diag, end []int32
	// iw maps a block column to its slot in the row Setup is eliminating,
	// -1 where the row has none; it is all -1 between rows.
	iw []int32
}

// NewILU0 builds an ILU(0) preconditioner over the first n rows/columns
// of a.
func NewILU0(a *sparse.CSR, n int, ch sparse.Charger) *ILU0 {
	if ch == nil {
		ch = sparse.NopCharger{}
	}
	diag, end := blockSplit(a, n)
	iw := make([]int32, n)
	for j := range iw {
		iw[j] = -1
	}
	return &ILU0{a: a, n: n, ch: ch, lu: make([]float64, a.NNZ()), diag: diag, end: end, iw: iw}
}

// Setup implements Preconditioner: IKJ-ordered ILU(0) on the block pattern.
// Row i's block slots are scattered into iw, so the update of row i against
// pivot row k walks row k's upper part once and finds each entry's partner
// in row i by its column. Columns are sorted within a row, so the updates
// come in column order.
func (p *ILU0) Setup() error {
	a := p.a
	copy(p.lu, a.Val)
	for i, d := range p.diag {
		if d < 0 {
			return fmt.Errorf("krylov: missing diagonal at row %d", i)
		}
	}
	var flops float64
	iw := p.iw
	for i := 0; i < p.n; i++ {
		lo, di, rowEnd := a.RowPtr[i], int(p.diag[i]), int(p.end[i])
		for t := lo; t < rowEnd; t++ {
			iw[a.Col[t]] = int32(t)
		}
		for sl := lo; sl < di; sl++ {
			// Row k < i is finished, so its pivot has been checked. Its
			// upper columns exceed k, so their partners lie after sl.
			k := a.Col[sl]
			lik := p.lu[sl] / p.lu[p.diag[k]]
			p.lu[sl] = lik
			for u, kEnd := int(p.diag[k])+1, int(p.end[k]); u < kEnd; u++ {
				if t := iw[a.Col[u]]; t >= 0 {
					p.lu[t] -= lik * p.lu[u]
					flops += 2
				}
			}
		}
		for t := lo; t < rowEnd; t++ {
			iw[a.Col[t]] = -1
		}
		// Apply divides by every row's pivot, also by one that no later
		// row eliminates against.
		if p.lu[di] == 0 {
			return fmt.Errorf("krylov: zero pivot at row %d", i)
		}
	}
	p.ch.ChargeCompute(flops+float64(a.NNZ()), 24*float64(a.NNZ()))
	return nil
}

// Apply implements Preconditioner: z = U⁻¹·L⁻¹·r on the owned block.
func (p *ILU0) Apply(r, z []float64) {
	a := p.a
	// Forward: L (unit diagonal), the entries before the diagonal.
	for i := 0; i < p.n; i++ {
		lo, d := a.RowPtr[i], int(p.diag[i])
		col, val := a.Col[lo:d], p.lu[lo:d]
		sum := r[i]
		for k, c := range col {
			sum -= val[k] * z[c]
		}
		z[i] = sum
	}
	// Backward: U, the diagonal and the block columns after it.
	for i := p.n - 1; i >= 0; i-- {
		d, e := int(p.diag[i]), int(p.end[i])
		col, val := a.Col[d+1:e], p.lu[d+1:e]
		sum := z[i]
		for k, c := range col {
			sum -= val[k] * z[c]
		}
		z[i] = sum / p.lu[d]
	}
	nnz := float64(a.NNZ())
	p.ch.ChargeCompute(2*nnz, 2*20*nnz)
}

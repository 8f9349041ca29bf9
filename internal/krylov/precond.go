package krylov

import (
	"fmt"

	"heterohpc/internal/sparse"
)

// Identity is the no-op preconditioner.
type Identity struct{}

// Setup implements Preconditioner.
func (Identity) Setup() error { return nil }

// Apply implements Preconditioner.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// Jacobi is diagonal scaling: z = D⁻¹·r over the local owned block. Across
// ranks it is exactly global Jacobi, since the diagonal is always owned.
type Jacobi struct {
	a    *sparse.CSR
	n    int
	ch   sparse.Charger
	dinv []float64
}

// NewJacobi builds a Jacobi preconditioner over the first n rows/columns of
// a (the owned square block).
func NewJacobi(a *sparse.CSR, n int, ch sparse.Charger) *Jacobi {
	if ch == nil {
		ch = sparse.NopCharger{}
	}
	return &Jacobi{a: a, n: n, ch: ch, dinv: make([]float64, n)}
}

// Setup implements Preconditioner.
func (j *Jacobi) Setup() error {
	for i := 0; i < j.n; i++ {
		s := j.a.Slot(i, i)
		if s < 0 || j.a.Val[s] == 0 {
			return fmt.Errorf("krylov: zero diagonal at row %d", i)
		}
		j.dinv[i] = 1 / j.a.Val[s]
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
	a    *sparse.CSR
	n    int
	ch   sparse.Charger
	dinv []float64
}

// NewSGS builds a symmetric Gauss–Seidel preconditioner over the first n
// rows/columns of a.
func NewSGS(a *sparse.CSR, n int, ch sparse.Charger) *SGS {
	if ch == nil {
		ch = sparse.NopCharger{}
	}
	return &SGS{a: a, n: n, ch: ch, dinv: make([]float64, n)}
}

// Setup implements Preconditioner.
func (s *SGS) Setup() error {
	for i := 0; i < s.n; i++ {
		sl := s.a.Slot(i, i)
		if sl < 0 || s.a.Val[sl] == 0 {
			return fmt.Errorf("krylov: zero diagonal at row %d", i)
		}
		s.dinv[i] = 1 / s.a.Val[sl]
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
		sum := r[i]
		for sl := a.RowPtr[i]; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c < i {
				sum -= a.Val[sl] * z[c]
			}
		}
		z[i] = sum * s.dinv[i]
	}
	// Backward sweep: (D+U)·z = D·y.
	for i := s.n - 1; i >= 0; i-- {
		var sum float64
		for sl := a.RowPtr[i]; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c > i && c < s.n {
				sum += a.Val[sl] * z[c]
			}
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
	// only); diag[i] is the slot of U[i,i] in lu.
	lu   []float64
	diag []int
}

// NewILU0 builds an ILU(0) preconditioner over the first n rows/columns
// of a.
func NewILU0(a *sparse.CSR, n int, ch sparse.Charger) *ILU0 {
	if ch == nil {
		ch = sparse.NopCharger{}
	}
	return &ILU0{a: a, n: n, ch: ch, lu: make([]float64, a.NNZ()), diag: make([]int, n)}
}

// Setup implements Preconditioner: IKJ-ordered ILU(0) on the block pattern.
// Columns are sorted within a row, so the update of row i against pivot row
// k is a two-pointer merge of row i's tail with row k's upper part.
func (p *ILU0) Setup() error {
	a := p.a
	copy(p.lu, a.Val)
	for i := 0; i < p.n; i++ {
		d := a.Slot(i, i)
		if d < 0 {
			return fmt.Errorf("krylov: missing diagonal at row %d", i)
		}
		p.diag[i] = d
	}
	var flops float64
	for i := 0; i < p.n; i++ {
		rowEnd := a.RowPtr[i+1]
		for sl := a.RowPtr[i]; sl < p.diag[i]; sl++ {
			k := a.Col[sl]
			piv := p.lu[p.diag[k]]
			if piv == 0 {
				return fmt.Errorf("krylov: zero pivot at row %d", k)
			}
			lik := p.lu[sl] / piv
			p.lu[sl] = lik
			// Update the remainder of row i against row k's upper part;
			// ghost columns (>= n) sort last and end the merge.
			u, kEnd := p.diag[k]+1, a.RowPtr[k+1]
			for t := sl + 1; t < rowEnd && u < kEnd && a.Col[t] < p.n; {
				switch j, ju := a.Col[t], a.Col[u]; {
				case ju < j:
					u++
				case ju > j:
					t++
				default:
					p.lu[t] -= lik * p.lu[u]
					flops += 2
					t++
					u++
				}
			}
		}
	}
	p.ch.ChargeCompute(flops+float64(a.NNZ()), 24*float64(a.NNZ()))
	return nil
}

// Apply implements Preconditioner: z = U⁻¹·L⁻¹·r on the owned block.
func (p *ILU0) Apply(r, z []float64) {
	a := p.a
	// Forward: L (unit diagonal).
	for i := 0; i < p.n; i++ {
		sum := r[i]
		for sl := a.RowPtr[i]; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c < i && c < p.n {
				sum -= p.lu[sl] * z[c]
			}
		}
		z[i] = sum
	}
	// Backward: U.
	for i := p.n - 1; i >= 0; i-- {
		sum := z[i]
		for sl := p.diag[i] + 1; sl < a.RowPtr[i+1]; sl++ {
			if c := a.Col[sl]; c < p.n {
				sum -= p.lu[sl] * z[c]
			}
		}
		z[i] = sum / p.lu[p.diag[i]]
	}
	nnz := float64(a.NNZ())
	p.ch.ChargeCompute(2*nnz, 2*20*nnz)
}

package krylov

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"heterohpc/internal/sparse"
)

// Identity is the no-op preconditioner.
type Identity struct{}

// Setup implements Preconditioner.
func (Identity) Setup() error { return nil }

// Apply implements Preconditioner.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// NewPrecond builds the preconditioner named name — "ilu0", "jacobi", "sgs"
// or "none" — over dm's owned square block, charging dm's rank; an "ilu0"
// shares its factor with the rank's class-mates (see ILU0). The caller adds
// its context to the error an unknown name returns.
func NewPrecond(name string, dm *sparse.DistMatrix) (Preconditioner, error) {
	switch name {
	case "ilu0":
		return classILU0(dm), nil
	case "jacobi":
		return NewJacobi(dm.Local(), dm.NOwned(), dm.Rank()), nil
	case "sgs":
		return NewSGS(dm.Local(), dm.NOwned(), dm.Rank()), nil
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
			sum -= float64(val[k] * z[c])
		}
		z[i] = sum * s.dinv[i]
	}
	// Backward sweep: (D+U)·z = D·y.
	for i := s.n - 1; i >= 0; i-- {
		d, e := int(s.diag[i])+1, int(s.end[i])
		col, val := a.Col[d:e], a.Val[d:e]
		var sum float64
		for k, c := range col {
			sum += float64(val[k] * z[c])
		}
		z[i] -= float64(sum * s.dinv[i])
	}
	nnz := float64(a.NNZ())
	s.ch.ChargeCompute(4*nnz, 2*20*nnz)
}

// ILU0 is a zero-fill incomplete LU factorisation of the local owned block,
// the workhorse preconditioner of the paper's solves (Ifpack ILU). Across
// ranks it acts as block-Jacobi/additive-Schwarz with zero overlap.
//
// One that NewPrecond builds over a DistMatrix shares its factor with the
// rank's class-mates: the ranks of one position class of a block
// decomposition hold the operator bit for bit alike, so at each round of
// Setups the first of them to arrive factors into the cell of the operator
// (its tag) on that shape, and the others read that factor once they have
// found their values equal to the builder's in every bit; one whose values
// differ factors into a buffer of its own. The builder's values and the
// cell are read by its class-mates until the next round, so the caller
// rule, like mp.Rank.Intern's "do all communication first", is: the ranks
// set up an operator equally often, and between any rank's last Apply or
// Setup of one round and any class-mate's next write of the operator's
// values or next Setup, the world completes a collective. CG and BiCGStab
// keep it: each solve starts with an allreduce (‖b‖) and each Apply is
// followed by one (a dot). GMRES's closing update, which no dot follows
// when the solve runs out of iterations, does not.
type ILU0 struct {
	a  *sparse.CSR
	n  int
	ch sparse.Charger
	// lu is the factor Apply reads, aligned with a's pattern (block columns
	// only): own's, or the class cell's. diag, end are a's blockSplit, so
	// diag[i] is the slot of U[i,i].
	lu        []float64
	diag, end []int32
	// own is the private factor: made at construction by NewILU0, and on
	// the first Setup that cannot adopt the cell's by NewPrecond's.
	own *iluBuf
	// cell is the class cell of NewPrecond's ILU0, nil for NewILU0's; at
	// names the round of its last Setup.
	cell *iluCell
	at   round
}

// iluBuf is the storage of one factorisation: the factor, and iw, which
// maps a block column to its slot in the row being eliminated, -1 where
// the row has none (all -1 between rows).
type iluBuf struct {
	lu []float64
	iw []int32
}

func newILUBuf(nnz, n int) *iluBuf {
	iw := make([]int32, n)
	for j := range iw {
		iw[j] = -1
	}
	return &iluBuf{lu: make([]float64, nnz), iw: iw}
}

// round names the Setup a class's ranks make together: the intern table's
// job and the ILU0's own count of its Setups.
type round struct {
	job   uint64
	setup int
}

// iluCell is the factor of one operator on one interned shape, filed in the
// world's intern table. col is the shape's column array, by which the cell
// is found and which it keeps alive; diag and end are its blockSplit. The
// fields under mu describe the round last begun: while building, its
// builder is factoring into buf; afterwards val is the builder's values —
// nil when the factorisation failed — and flops what it counted.
type iluCell struct {
	col       []int
	tag       int
	diag, end []int32
	buf       *iluBuf

	mu       sync.Mutex
	done     sync.Cond
	at       round
	building bool
	val      []float64
	flops    float64
}

// NewILU0 builds an ILU(0) preconditioner over the first n rows/columns
// of a, with a factor of its own.
func NewILU0(a *sparse.CSR, n int, ch sparse.Charger) *ILU0 {
	if ch == nil {
		ch = sparse.NopCharger{}
	}
	diag, end := blockSplit(a, n)
	return &ILU0{a: a, n: n, ch: ch, diag: diag, end: end, own: newILUBuf(a.NNZ(), n)}
}

// classILU0 is NewPrecond's "ilu0"; a test wraps it to watch every factor
// the applications' solves read.
var classILU0 = func(dm *sparse.DistMatrix) Preconditioner { return newClassILU0(dm) }

// newClassILU0 builds an ILU(0) over dm's owned block that shares its
// factor through the class cell of dm's shape and tag, filing the cell when
// it is the first to look.
func newClassILU0(dm *sparse.DistMatrix) *ILU0 {
	a, n, r := dm.Local(), dm.NOwned(), dm.Rank()
	if a.NNZ() == 0 {
		return NewILU0(a, n, r)
	}
	tag := dm.Tag()
	// The key only narrows the search; a cell is the one for dm when it was
	// made over the same column array, and so the same shape.
	v, _ := r.Intern(uint64(tag)<<40^uint64(a.NNZ()),
		func(v any) bool {
			c, ok := v.(*iluCell)
			return ok && c.tag == tag && &c.col[0] == &a.Col[0]
		},
		func() (any, error) {
			diag, end := blockSplit(a, n)
			c := &iluCell{col: a.Col, tag: tag, diag: diag, end: end, buf: newILUBuf(a.NNZ(), n)}
			c.done.L = &c.mu
			return c, nil
		})
	c := v.(*iluCell)
	return &ILU0{a: a, n: n, ch: r, diag: c.diag, end: c.end, cell: c, at: round{job: r.Job()}}
}

// Setup implements Preconditioner: the ILU(0) factor of the current values,
// charged as the factorisation's flops and traffic, also when adopted.
func (p *ILU0) Setup() error {
	if p.cell == nil {
		return p.setupOwn()
	}
	c := p.cell
	p.at.setup++
	c.mu.Lock()
	if c.at != p.at {
		c.at, c.building = p.at, true
		c.mu.Unlock()
		return p.build(c)
	}
	for c.building {
		c.done.Wait()
	}
	val, flops := c.val, c.flops
	c.mu.Unlock()
	if val == nil || !sparse.SameBits(val, p.a.Val) {
		return p.setupOwn()
	}
	p.lu = c.buf.lu
	p.charge(flops)
	return nil
}

// build factors p's values into the cell for its class-mates, and publishes
// them with the flops, or nil when the factorisation failed; it wakes the
// waiters whatever happens.
func (p *ILU0) build(c *iluCell) error {
	var val []float64
	var flops float64
	defer func() {
		c.mu.Lock()
		c.val, c.flops, c.building = val, flops, false
		c.mu.Unlock()
		c.done.Broadcast()
	}()
	flops, err := p.factor(c.buf)
	if err == nil {
		val = p.a.Val
	}
	return err
}

// setupOwn factors into the ILU0's own buffer.
func (p *ILU0) setupOwn() error {
	if p.own == nil {
		p.own = newILUBuf(p.a.NNZ(), p.n)
	}
	_, err := p.factor(p.own)
	return err
}

// charge charges a factorisation that counted flops.
func (p *ILU0) charge(flops float64) {
	nnz := float64(p.a.NNZ())
	p.ch.ChargeCompute(flops+nnz, 24*nnz)
}

// factor is IKJ-ordered ILU(0) on the block pattern into b, which Apply
// then reads; it charges the factorisation and returns the update flops
// when it succeeds. Row i's block slots are scattered into b.iw, so the update
// of row i against pivot row k walks row k's upper part once and finds each
// entry's partner in row i by its column. Columns are sorted within a row,
// so the updates come in column order.
func (p *ILU0) factor(b *iluBuf) (float64, error) {
	a, lu, iw := p.a, b.lu, b.iw
	p.lu = lu
	copy(lu, a.Val)
	for i, d := range p.diag {
		if d < 0 {
			return 0, fmt.Errorf("krylov: missing diagonal at row %d", i)
		}
	}
	var flops float64
	for i := 0; i < p.n; i++ {
		lo, di, rowEnd := a.RowPtr[i], int(p.diag[i]), int(p.end[i])
		for t := lo; t < rowEnd; t++ {
			iw[a.Col[t]] = int32(t)
		}
		for sl := lo; sl < di; sl++ {
			// Row k < i is finished, so its pivot has been checked. Its
			// upper columns exceed k, so their partners lie after sl.
			k := a.Col[sl]
			lik := lu[sl] / lu[p.diag[k]]
			lu[sl] = lik
			for u, kEnd := int(p.diag[k])+1, int(p.end[k]); u < kEnd; u++ {
				if t := iw[a.Col[u]]; t >= 0 {
					lu[t] -= float64(lik * lu[u])
					flops += 2
				}
			}
		}
		for t := lo; t < rowEnd; t++ {
			iw[a.Col[t]] = -1
		}
		// Apply divides by every row's pivot, also by one that no later
		// row eliminates against.
		if lu[di] == 0 {
			return 0, fmt.Errorf("krylov: zero pivot at row %d", i)
		}
	}
	p.charge(flops)
	return flops, nil
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
			sum -= float64(val[k] * z[c])
		}
		z[i] = sum
	}
	// Backward: U, the diagonal and the block columns after it.
	for i := p.n - 1; i >= 0; i-- {
		d, e := int(p.diag[i]), int(p.end[i])
		col, val := a.Col[d+1:e], p.lu[d+1:e]
		sum := z[i]
		for k, c := range col {
			sum -= float64(val[k] * z[c])
		}
		z[i] = sum / p.lu[d]
	}
	nnz := float64(a.NNZ())
	p.ch.ChargeCompute(2*nnz, 2*20*nnz)
}

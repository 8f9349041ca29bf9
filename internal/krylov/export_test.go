package krylov

import "heterohpc/internal/sparse"

// Factor returns the factor p's Apply reads.
func Factor(p *ILU0) []float64 { return p.lu }

// Cell returns p's class cell, nil for a private ILU0, as an opaque
// identity.
func Cell(p *ILU0) any {
	if p.cell == nil {
		return nil
	}
	return p.cell
}

// Shared reports whether p's Apply reads its class cell's factor.
func Shared(p *ILU0) bool {
	return p.cell != nil && len(p.lu) > 0 && &p.lu[0] == &p.cell.buf.lu[0]
}

// SetCharger makes p charge ch.
func SetCharger(p *ILU0, ch sparse.Charger) { p.ch = ch }

// WrapClassILU0 makes NewPrecond's "ilu0" return what wrap makes of the
// class ILU0 it would have returned, until the returned func restores it.
func WrapClassILU0(wrap func(dm *sparse.DistMatrix, p *ILU0) Preconditioner) (restore func()) {
	old := classILU0
	classILU0 = func(dm *sparse.DistMatrix) Preconditioner { return wrap(dm, newClassILU0(dm)) }
	return func() { classILU0 = old }
}

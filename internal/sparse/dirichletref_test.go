package sparse

// refDirichlet is Dirichlet as it was while every eliminated coupling kept
// its column's global id and EliminateRHS asked g for each one: the oracle
// for the per-column evaluation (same matrix, same right-hand sides, same
// charges; only the number of g calls may differ).
type refDirichlet struct {
	dm      *DistMatrix
	bcRows  []int
	elimRow []int
	elimCol []int
	elimVal []float64
	bcCol   []bool
}

func refNewDirichlet(dm *DistMatrix, isBC func(global int) bool) *refDirichlet {
	d := &refDirichlet{dm: dm}
	d.Recompute(isBC)
	return d
}

func (d *refDirichlet) Recompute(isBC func(global int) bool) {
	dm := d.dm
	A := dm.A
	n := dm.NOwned()
	nc := dm.NCols()
	if cap(d.bcCol) < nc {
		d.bcCol = make([]bool, nc)
	}
	bcCol := d.bcCol[:nc]
	for lc := 0; lc < nc; lc++ {
		bcCol[lc] = isBC(dm.ColGlobal(lc))
	}
	d.bcRows = d.bcRows[:0]
	d.elimRow = d.elimRow[:0]
	d.elimCol = d.elimCol[:0]
	d.elimVal = d.elimVal[:0]
	for lr := 0; lr < n; lr++ {
		rowIsBC := bcCol[lr] // local row lr ↔ local col lr (aligned maps)
		if rowIsBC {
			d.bcRows = append(d.bcRows, lr)
		}
		for s := A.RowPtr[lr]; s < A.RowPtr[lr+1]; s++ {
			lc := A.Col[s]
			switch {
			case rowIsBC:
				if lc == lr {
					A.Val[s] = 1
				} else {
					A.Val[s] = 0
				}
			case bcCol[lc]:
				if A.Val[s] != 0 {
					d.elimRow = append(d.elimRow, lr)
					d.elimCol = append(d.elimCol, dm.ColGlobal(lc))
					d.elimVal = append(d.elimVal, A.Val[s])
				}
				A.Val[s] = 0
			}
		}
	}
	dm.r.ChargeCompute(float64(A.NNZ()), 12*float64(A.NNZ()))
}

func (d *refDirichlet) EliminateRHS(g func(global int) float64, rhs []float64) {
	if len(rhs) < d.dm.NOwned() {
		panic("sparse: rhs shorter than owned rows")
	}
	for k, lr := range d.elimRow {
		rhs[lr] -= d.elimVal[k] * g(d.elimCol[k])
	}
	for _, lr := range d.bcRows {
		rhs[lr] = g(d.dm.rowMap.Owned[lr])
	}
	d.dm.r.ChargeCompute(float64(2*len(d.elimRow)+len(d.bcRows)),
		24*float64(len(d.elimRow)))
}

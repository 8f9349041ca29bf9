package sparse

import (
	"fmt"
	"sort"

	"heterohpc/internal/mp"
)

// DistMatrix is a row-distributed sparse matrix (the Epetra_FECrsMatrix
// role). Each rank stores the rows of its owned vertices; the column space
// is [owned | ghost-columns], where ghost columns are the off-rank vertices
// its rows couple to. Finite-element assembly may produce contributions to
// rows owned by other ranks; those triplets are exported to their owners
// during construction (symbolically) and on every SetValues (numerically) —
// the GlobalAssemble step of the paper's stack.
type DistMatrix struct {
	r      *mp.Rank
	rowMap *RowMap
	// A holds the owned rows over local column indices.
	A *CSR
	// ghostCols lists ghost column global ids; local column nOwned+i.
	ghostCols []int
	imp       *Importer

	// Numeric-refill plans. localSlots[i] is the CSR value slot for the i-th
	// kept triplet of the structure COO; exportIdx groups the structure-COO
	// indices of off-rank triplets by destination peer; importSlots are the
	// CSR slots for the value streams arriving from each source peer.
	// localSlots and importSlots are stretches of the one slot list the
	// pattern builder returned. nTrip is the structure COO's triplet count.
	nTrip       int
	localTrip   []int // structure-COO indices of locally-owned triplets
	localSlots  []int
	exportPeers []int
	exportIdx   [][]int
	importPeers []int
	importSlots [][]int

	tag       int
	xbuf      []float64
	compacted bool
}

// NewDistMatrix builds the distributed structure from assembly triplets in
// global ids (coo may contain rows owned by other ranks) and fills the
// values. owner maps any global id to its owning rank; tag reserves message
// tags [tag, tag+4) for this matrix. The coo is retained by reference for
// SetValues refills and must keep its triplet order.
func NewDistMatrix(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int, tag int) (*DistMatrix, error) {
	return newDistMatrix(r, rowMap, coo, owner, tag, nil)
}

// NewDistMatrixLike builds a matrix like NewDistMatrix but reuses prev's
// ghost-value importer when the new matrix turns out to have the same ghost
// column set (the common case for several operators assembled over one
// finite-element space, e.g. the Navier–Stokes mass/gradient/velocity
// family). Sharing skips the importer's census Allreduce and request
// handshake — at 8 ranks that is the dominant setup allocation — and is
// collective: all ranks must agree on prev. When the ghost sets differ the
// matrix silently builds its own importer, so the call is always safe.
func NewDistMatrixLike(prev *DistMatrix, coo *COO, owner func(int) int, tag int) (*DistMatrix, error) {
	return newDistMatrix(prev.r, prev.rowMap, coo, owner, tag, prev.imp)
}

func newDistMatrix(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int, tag int, share *Importer) (*DistMatrix, error) {
	dm := &DistMatrix{r: r, rowMap: rowMap, tag: tag, nTrip: coo.Len()}

	// Classify every triplet once: its local row, or ^owner when the row
	// lives on another rank. The counts size the refill plans exactly
	// (assembly COOs run to millions of triplets, so append growth here
	// dominated construction allocations).
	cls := make([]int32, coo.Len())
	nLocal := 0
	exportCounts := map[int]int{} // peer -> triplet count
	for t, g := range coo.Rows {
		if lr, ok := rowMap.LocalOf(g); ok {
			cls[t] = int32(lr)
			nLocal++
			continue
		}
		o := owner(g)
		if o == r.ID() || o < 0 || o >= r.Size() {
			return nil, fmt.Errorf("sparse: row %d has bad owner %d", g, o)
		}
		cls[t] = ^int32(o)
		exportCounts[o]++
	}
	dm.localTrip = make([]int, 0, nLocal)
	dm.exportPeers = sortedIntKeys(exportCounts)
	dm.exportIdx = make([][]int, len(dm.exportPeers))
	exportPeerIdx := make(map[int]int, len(dm.exportPeers))
	flatExport := make([]int, coo.Len()-nLocal)
	off := 0
	for i, p := range dm.exportPeers {
		exportPeerIdx[p] = i
		dm.exportIdx[i] = flatExport[off : off : off+exportCounts[p]]
		off += exportCounts[p]
	}
	for t, c := range cls {
		if c >= 0 {
			dm.localTrip = append(dm.localTrip, t)
		} else {
			pi := exportPeerIdx[int(^c)]
			dm.exportIdx[pi] = append(dm.exportIdx[pi], t)
		}
	}

	// Ship off-rank structure (row,col pairs) to owners; receive ours.
	numSenders := census(r, dm.exportPeers)
	for i, p := range dm.exportPeers {
		idx := dm.exportIdx[i]
		pairs := make([]int, 0, 2*len(idx))
		for _, t := range idx {
			pairs = append(pairs, coo.Rows[t], coo.Cols[t])
		}
		r.SendInts(p, tag, pairs)
	}
	type incoming struct {
		src   int
		pairs []int
	}
	ins := make([]incoming, 0, numSenders)
	nPat := nLocal
	for i := 0; i < numSenders; i++ {
		src, pairs := r.RecvAnyInts(tag)
		ins = append(ins, incoming{src, pairs})
		nPat += len(pairs) / 2
	}
	for i := 1; i < len(ins); i++ {
		for j := i; j > 0 && ins[j].src < ins[j-1].src; j-- {
			ins[j], ins[j-1] = ins[j-1], ins[j]
		}
	}

	// Local coordinates of the pattern's triplets: the locally-owned ones
	// in structure order, then each source peer's stream. The column map is
	// owned columns first (aligned with the row map so the same vector
	// serves as both domain and range), then ghost columns in ascending
	// global id; until that order is known a ghost column is parked as
	// ^(its discovery index).
	nOwned := rowMap.N()
	rows := make([]int32, nPat)
	cols := make([]int32, nPat)
	found := map[int]int32{} // ghost global id -> discovery index
	localCol := func(g int) int32 {
		if lc, ok := rowMap.LocalOf(g); ok {
			return int32(lc)
		}
		k, ok := found[g]
		if !ok {
			k = int32(len(dm.ghostCols))
			found[g] = k
			dm.ghostCols = append(dm.ghostCols, g)
		}
		return ^k
	}
	for i, t := range dm.localTrip {
		rows[i], cols[i] = cls[t], localCol(coo.Cols[t])
	}
	at := nLocal
	for _, in := range ins {
		for j := 0; j < len(in.pairs); j += 2 {
			lr, ok := rowMap.LocalOf(in.pairs[j])
			if !ok {
				return nil, fmt.Errorf("sparse: received row %d not owned by rank %d",
					in.pairs[j], r.ID())
			}
			rows[at], cols[at] = int32(lr), localCol(in.pairs[j+1])
			at++
		}
	}
	sort.Ints(dm.ghostCols)
	place := make([]int32, len(dm.ghostCols)) // discovery index -> local column
	for i, g := range dm.ghostCols {
		place[found[g]] = int32(nOwned + i)
	}
	for i, c := range cols {
		if c < 0 {
			cols[i] = place[^c]
		}
	}

	// The pattern builder hands back every triplet's value slot, which is
	// the numeric-refill plan: local triplets first, then one stretch per
	// source peer.
	nCols := nOwned + len(dm.ghostCols)
	rowPtr, col, slots, err := buildPattern(nOwned, nCols, rows, cols)
	if err != nil {
		return nil, err
	}
	dm.A = &CSR{NRows: nOwned, NCols: nCols, RowPtr: rowPtr, Col: col, Val: make([]float64, len(col))}
	dm.localSlots = slots[:nLocal:nLocal]
	dm.importPeers = make([]int, len(ins))
	dm.importSlots = make([][]int, len(ins))
	off = nLocal
	for k, in := range ins {
		n := len(in.pairs) / 2
		dm.importPeers[k], dm.importSlots[k] = in.src, slots[off:off+n:off+n]
		off += n
	}

	// Ghost-value importer for matrix-vector products, shared with a
	// structurally identical sibling when possible. The decision must be
	// collective — a rank that shares skips the importer handshake while a
	// rank that rebuilds enters its census Allreduce — so the rank-local
	// ghost-set comparisons are agreed with one scalar reduction before
	// committing either way.
	if share != nil {
		eq := 0.0
		if intsEqual(dm.ghostCols, share.ghostGlobal) {
			eq = 1
		}
		if int(r.AllreduceScalar(mp.OpSum, eq)+0.5) == r.Size() {
			dm.imp = share
		}
	}
	if dm.imp == nil {
		dm.imp, err = NewImporter(r, rowMap, dm.ghostCols, owner, tag+2)
		if err != nil {
			return nil, err
		}
	}
	dm.xbuf = make([]float64, nCols)
	dm.SetValues(coo)
	return dm, nil
}

// Compact releases the numeric-refill plans (triplet slot maps and export
// schedules), cutting the matrix's memory to the CSR block plus the
// importer. Call it on matrices whose values never change after assembly —
// at the paper's 1000-rank scale the mass, pressure and gradient operators
// of the Navier–Stokes solver would otherwise hold gigabytes of refill
// bookkeeping. SetValues panics after Compact.
func (dm *DistMatrix) Compact() {
	dm.localTrip = nil
	dm.localSlots = nil
	dm.exportPeers = nil
	dm.exportIdx = nil
	dm.importPeers = nil
	dm.importSlots = nil
	dm.compacted = true
}

// SetValues refills the matrix from coo, which must contain exactly the
// triplets (same order) passed to NewDistMatrix, with new values. Off-rank
// contributions are exported to their owners and summed there.
func (dm *DistMatrix) SetValues(coo *COO) {
	if dm.compacted {
		panic("sparse: SetValues on compacted matrix")
	}
	if len(coo.Vals) != dm.nTrip {
		panic(fmt.Sprintf("sparse: SetValues with %d values, structure has %d", len(coo.Vals), dm.nTrip))
	}
	dm.A.ZeroVals()
	for i, t := range dm.localTrip {
		dm.A.Val[dm.localSlots[i]] += coo.Vals[t]
	}
	for i, p := range dm.exportPeers {
		dm.r.SendF64Gather(p, dm.tag+1, coo.Vals, dm.exportIdx[i])
	}
	for i, p := range dm.importPeers {
		dm.r.RecvF64AddScatter(p, dm.tag+1, dm.A.Val, dm.importSlots[i])
	}
	// Accumulation cost of the numeric refill.
	dm.r.ChargeCompute(float64(len(dm.localTrip)), 16*float64(len(dm.localTrip)))
}

// NOwned returns the owned row count.
func (dm *DistMatrix) NOwned() int { return dm.rowMap.N() }

// NCols returns the local column-space width (owned + ghost columns).
func (dm *DistMatrix) NCols() int { return dm.rowMap.N() + len(dm.ghostCols) }

// RowMap returns the matrix's row distribution.
func (dm *DistMatrix) RowMap() *RowMap { return dm.rowMap }

// Importer returns the ghost-column importer (shared with solvers that need
// ghost exchanges of iterate vectors).
func (dm *DistMatrix) Importer() *Importer { return dm.imp }

// Local returns the owned-rows CSR block (local column indexing).
func (dm *DistMatrix) Local() *CSR { return dm.A }

// ColGlobal returns the global id of local column lc.
func (dm *DistMatrix) ColGlobal(lc int) int {
	if lc < dm.rowMap.N() {
		return dm.rowMap.Owned[lc]
	}
	return dm.ghostCols[lc-dm.rowMap.N()]
}

// Apply computes y = A·x where x and y are owned-length vectors. The ghost
// tail is imported internally. All ranks must call Apply together.
func (dm *DistMatrix) Apply(x, y []float64) {
	n := dm.NOwned()
	copy(dm.xbuf[:n], x[:n])
	dm.imp.Exchange(dm.xbuf)
	dm.A.MulVec(dm.xbuf, y, dm.r)
}

// AllSum implements the global reduction used by solvers on this matrix's
// communicator.
func (dm *DistMatrix) AllSum(v float64) float64 {
	return dm.r.AllreduceScalar(mp.OpSum, v)
}

// Rank returns the communicator rank this matrix lives on.
func (dm *DistMatrix) Rank() *mp.Rank { return dm.r }

// ChargeCompute implements Charger by delegating to the rank's clock, so
// solvers can charge their vector work through the matrix.
func (dm *DistMatrix) ChargeCompute(flops, bytes float64) {
	dm.r.ChargeCompute(flops, bytes)
}

// Dirichlet captures the boundary elimination of a matrix: at construction
// it turns boundary rows into identity rows and zeroes boundary columns,
// saving the zeroed coefficients so that right-hand sides can be eliminated
// later — including several right-hand sides against the same matrix (the
// Navier–Stokes velocity step solves three components with one operator)
// and right-hand sides whose boundary data changes each time step while the
// matrix does not (the pressure Poisson operator).
type Dirichlet struct {
	dm *DistMatrix
	// bcRows lists owned boundary rows (local index).
	bcRows []int
	// elimRow/elimCol/elimVal record the zeroed column entries:
	// rhs[elimRow[k]] -= elimVal[k]·g(elimCol[k]) with elimCol a global id.
	elimRow []int
	elimCol []int
	elimVal []float64
	// bcCol is the cached boundary-column indicator, reused by Recompute.
	bcCol []bool
}

// NewDirichlet modifies the matrix in place (identity boundary rows, zeroed
// boundary columns — symmetry preserving) and returns the eliminator for
// the right-hand sides. isBC is evaluated on global vertex ids, so every
// rank handles its ghost columns without communication. After a SetValues
// refill call Recompute on the returned eliminator (or NewDirichlet again).
func (dm *DistMatrix) NewDirichlet(isBC func(global int) bool) *Dirichlet {
	d := &Dirichlet{dm: dm}
	d.Recompute(isBC)
	return d
}

// Recompute re-applies the boundary elimination after a SetValues refill,
// reusing the eliminator's storage so steady-state time loops stay
// allocation-free. The scan is value-faithful to NewDirichlet — elim
// entries are recorded only for nonzero coefficients, so the recorded
// count (and with it the EliminateRHS compute charge) tracks the refilled
// values exactly as a fresh NewDirichlet would.
func (d *Dirichlet) Recompute(isBC func(global int) bool) {
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
	if cap(d.elimRow) == 0 {
		// First build: a counting pass sizes the arrays exactly, replacing
		// a dozen append-growth reallocations with four.
		nbc, nelim := 0, 0
		for lr := 0; lr < n; lr++ {
			if bcCol[lr] {
				nbc++
				continue
			}
			for s := A.RowPtr[lr]; s < A.RowPtr[lr+1]; s++ {
				if bcCol[A.Col[s]] && A.Val[s] != 0 {
					nelim++
				}
			}
		}
		d.bcRows = make([]int, 0, nbc)
		d.elimRow = make([]int, 0, nelim)
		d.elimCol = make([]int, 0, nelim)
		d.elimVal = make([]float64, 0, nelim)
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

// EliminateRHS folds boundary values into one right-hand side: boundary
// rows get rhs = g, interior rows get rhs_i -= A_ij·g_j for the eliminated
// couplings.
func (d *Dirichlet) EliminateRHS(g func(global int) float64, rhs []float64) {
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

// SetSolution writes the boundary values into the owned entries of a
// solution vector (used after projection updates that disturb boundary
// dofs).
func (d *Dirichlet) SetSolution(g func(global int) float64, x []float64) {
	for _, lr := range d.bcRows {
		x[lr] = g(d.dm.rowMap.Owned[lr])
	}
}

// ApplyDirichlet imposes u = g on boundary rows/columns in a
// symmetry-preserving way: boundary rows become identity with rhs = g, and
// boundary columns are eliminated into the right-hand side
// (rhs_i -= A_ij·g_j). It is shorthand for NewDirichlet + EliminateRHS.
func (dm *DistMatrix) ApplyDirichlet(isBC func(global int) bool, g func(global int) float64, rhs []float64) {
	dm.NewDirichlet(isBC).EliminateRHS(g, rhs)
}

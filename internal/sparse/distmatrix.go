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
//
// A matrix is a symbolic structure plus its own values. The structure —
// CSR pattern, ghost column list, refill plan — depends only on the (row,
// col) sequences the ranks assemble, so the operators of one finite-element
// space share a single copy through their RowMap: A.RowPtr and A.Col of
// such siblings alias the same arrays and must be treated as read-only.
type DistMatrix struct {
	r      *mp.Rank
	rowMap *RowMap
	st     *structure
	// A holds the owned rows over local column indices: the structure's
	// pattern, this matrix's values.
	A   *CSR
	imp *Importer

	tag       int
	xbuf      []float64
	compacted bool
}

// structure is the symbolic half of a DistMatrix: everything fixed by the
// (row, col) sequence of this rank's assembly COO and of the streams its
// peers ship. It is immutable once complete and is remembered on the RowMap
// it was built over.
type structure struct {
	// rowPtr/col are the CSR pattern of the owned rows over local columns.
	rowPtr, col []int
	// ghostCols lists ghost column global ids; local column nOwned+i.
	ghostCols []int

	// plan is the numeric-refill plan, one entry per triplet of the
	// structure COO: the CSR value slot a locally-owned triplet accumulates
	// into, or ^i for an off-rank triplet shipped to exportPeers[i]. nLocal
	// counts the former. exportIdx groups the structure-COO indices of the
	// off-rank triplets by destination peer; importSlots are the CSR slots
	// for the value streams arriving from each source peer.
	plan        []int32
	nLocal      int
	exportPeers []int
	exportIdx   [][]int
	importPeers []int
	importSlots [][]int
}

// incoming is the (row, col) pair stream one source peer shipped.
type incoming struct {
	src   int
	pairs []int
}

// NewDistMatrix builds the distributed structure from assembly triplets in
// global ids (coo may contain rows owned by other ranks) and fills the
// values. owner maps any global id to its owning rank; tag reserves message
// tags [tag, tag+4) for this matrix. The coo is not retained; SetValues
// refills take one with the same triplet order.
//
// When rowMap already holds a structure that coo and the peers' streams
// follow triplet for triplet, the matrix adopts it and allocates only its
// values; otherwise it builds one and leaves it on rowMap for the next
// operator. Either way the ranks exchange the same messages and charge the
// same virtual cost.
func NewDistMatrix(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int, tag int) (*DistMatrix, error) {
	return newDistMatrix(r, rowMap, coo, owner, tag, nil)
}

// NewDistMatrixLike builds a matrix like NewDistMatrix over prev's rank and
// RowMap, and also reuses prev's ghost-value importer when the new matrix
// turns out to have the same ghost column set (the common case for several
// operators assembled over one finite-element space, e.g. the Navier–Stokes
// mass/gradient/velocity family). Sharing skips the importer's census
// Allreduce and request handshake — at 8 ranks that is the dominant setup
// allocation — and is collective: all ranks must agree on prev. When the
// ghost sets differ the matrix silently builds its own importer, so the
// call is always safe. The symbolic structure is shared through the RowMap
// by either constructor; what Like adds is the importer, whose handshake is
// real traffic and so can only be skipped by agreement.
func NewDistMatrixLike(prev *DistMatrix, coo *COO, owner func(int) int, tag int) (*DistMatrix, error) {
	return newDistMatrix(prev.r, prev.rowMap, coo, owner, tag, prev.imp)
}

func newDistMatrix(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int, tag int, share *Importer) (*DistMatrix, error) {
	st, err := structureFor(r, rowMap, coo, owner, tag)
	if err != nil {
		return nil, err
	}
	nOwned, nCols := rowMap.N(), rowMap.N()+len(st.ghostCols)
	dm := &DistMatrix{r: r, rowMap: rowMap, st: st, tag: tag}
	dm.A = &CSR{NRows: nOwned, NCols: nCols, RowPtr: st.rowPtr, Col: st.col, Val: make([]float64, len(st.col))}

	// Ghost-value importer for matrix-vector products, shared with a
	// structurally identical sibling when possible. The decision must be
	// collective — a rank that shares skips the importer handshake while a
	// rank that rebuilds enters its census Allreduce — so the rank-local
	// ghost-set comparisons are agreed with one scalar reduction before
	// committing either way.
	if share != nil {
		eq := 0.0
		if intsEqual(st.ghostCols, share.ghostGlobal) {
			eq = 1
		}
		if int(r.AllreduceScalar(mp.OpSum, eq)+0.5) == r.Size() {
			dm.imp = share
		}
	}
	if dm.imp == nil {
		dm.imp, err = NewImporter(r, rowMap, st.ghostCols, owner, tag+2)
		if err != nil {
			return nil, err
		}
	}
	dm.xbuf = make([]float64, nCols)
	dm.SetValues(coo)
	return dm, nil
}

// structureFor exchanges the off-rank (row, col) pairs and returns the
// structure of the matrix that coo and the received streams describe: a
// structure remembered on rowMap when they follow one exactly, otherwise a
// new one, which rowMap then remembers. The exchange is the same either way
// — a rank cannot know whether its peers are adopting or building, and
// set-up traffic moves every rank's virtual clock.
func structureFor(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int, tag int) (*structure, error) {
	// A remembered structure this rank's triplets follow stands in for the
	// classification; whether the peers' streams follow it too is known
	// only once they are in. Without one, fresh is the structure this build
	// makes.
	at, st := rowMap.nextLocalMatch(0, r, coo, owner)
	exports := st // whose export lists the exchange follows
	var fresh *structure
	var err error
	if st == nil {
		if fresh, err = newStructure(r, rowMap, coo, owner); err != nil {
			return nil, err
		}
		exports = fresh
	}

	// Ship off-rank structure (row,col pairs) to owners; receive ours.
	numSenders := census(r, exports.exportPeers)
	for i, p := range exports.exportPeers {
		idx := exports.exportIdx[i]
		pairs := make([]int, 0, 2*len(idx))
		for _, t := range idx {
			pairs = append(pairs, coo.Rows[t], coo.Cols[t])
		}
		r.SendInts(p, tag, pairs)
	}
	ins := make([]incoming, 0, numSenders)
	for i := 0; i < numSenders; i++ {
		src, pairs := r.RecvAnyInts(tag)
		ins = append(ins, incoming{src, pairs})
	}
	for i := 1; i < len(ins); i++ {
		for j := i; j > 0 && ins[j].src < ins[j-1].src; j-- {
			ins[j], ins[j-1] = ins[j-1], ins[j]
		}
	}

	// A peer that assembled something else rules a local match out, but a
	// later structure may share its local half (same triplets here,
	// another operator there).
	for st != nil && !st.matchIncoming(rowMap, ins) {
		at, st = rowMap.nextLocalMatch(at+1, r, coo, owner)
	}
	if st != nil {
		return st, nil
	}
	// Build, from the streams already received.
	if fresh == nil {
		if fresh, err = newStructure(r, rowMap, coo, owner); err != nil {
			return nil, err
		}
	}
	if err = fresh.complete(r, rowMap, coo, ins); err != nil {
		return nil, err
	}
	rowMap.structs = append(rowMap.structs, fresh)
	return fresh, nil
}

// newStructure starts a structure from this rank's triplets: each is
// classified once, as locally owned or as an export to its row's owner, and
// the export side is complete on return. Until complete has built the
// pattern, a local triplet's plan entry holds its local row.
func newStructure(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int) (*structure, error) {
	// plan[t] is the local row, or ^owner when the row lives on another
	// rank. The counts size the export lists exactly (assembly COOs run to
	// millions of triplets, so append growth here dominated construction
	// allocations).
	st := &structure{plan: make([]int32, coo.Len())}
	exportCounts := map[int]int{} // peer -> triplet count
	for t, g := range coo.Rows {
		if lr, ok := rowMap.LocalOf(g); ok {
			st.plan[t] = int32(lr)
			st.nLocal++
			continue
		}
		o := owner(g)
		if o == r.ID() || o < 0 || o >= r.Size() {
			return nil, fmt.Errorf("sparse: row %d has bad owner %d", g, o)
		}
		st.plan[t] = ^int32(o)
		exportCounts[o]++
	}
	st.exportPeers = sortedIntKeys(exportCounts)
	st.exportIdx = make([][]int, len(st.exportPeers))
	exportPeerIdx := make(map[int]int, len(st.exportPeers))
	flatExport := make([]int, coo.Len()-st.nLocal)
	off := 0
	for i, p := range st.exportPeers {
		exportPeerIdx[p] = i
		st.exportIdx[i] = flatExport[off : off : off+exportCounts[p]]
		off += exportCounts[p]
	}
	for t, c := range st.plan {
		if c < 0 {
			pi := exportPeerIdx[int(^c)]
			st.exportIdx[pi] = append(st.exportIdx[pi], t)
			st.plan[t] = ^int32(pi)
		}
	}
	return st, nil
}

// complete builds the pattern from this rank's local triplets and the
// peers' streams (sorted by source), and turns the local rows parked in
// the plan into value slots.
func (st *structure) complete(r *mp.Rank, rowMap *RowMap, coo *COO, ins []incoming) error {
	nPat := st.nLocal
	for _, in := range ins {
		nPat += len(in.pairs) / 2
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
			k = int32(len(st.ghostCols))
			found[g] = k
			st.ghostCols = append(st.ghostCols, g)
		}
		return ^k
	}
	at := 0
	for t, lr := range st.plan {
		if lr >= 0 {
			rows[at], cols[at] = lr, localCol(coo.Cols[t])
			at++
		}
	}
	for _, in := range ins {
		for j := 0; j < len(in.pairs); j += 2 {
			lr, ok := rowMap.LocalOf(in.pairs[j])
			if !ok {
				return fmt.Errorf("sparse: received row %d not owned by rank %d",
					in.pairs[j], r.ID())
			}
			rows[at], cols[at] = int32(lr), localCol(in.pairs[j+1])
			at++
		}
	}
	sort.Ints(st.ghostCols)
	place := make([]int32, len(st.ghostCols)) // discovery index -> local column
	for i, g := range st.ghostCols {
		place[found[g]] = int32(nOwned + i)
	}
	for i, c := range cols {
		if c < 0 {
			cols[i] = place[^c]
		}
	}

	// The pattern builder hands back every triplet's value slot: the local
	// triplets' go into the plan, then one stretch per source peer.
	var slots []int32
	var err error
	st.rowPtr, st.col, slots, err = buildPattern(nOwned, nOwned+len(st.ghostCols), rows, cols)
	if err != nil {
		return err
	}
	at = 0
	for t, lr := range st.plan {
		if lr >= 0 {
			st.plan[t] = slots[at]
			at++
		}
	}
	st.importPeers = make([]int, len(ins))
	st.importSlots = make([][]int, len(ins))
	flatImport := make([]int, 0, nPat-st.nLocal)
	for k, in := range ins {
		lo := len(flatImport)
		for _, s := range slots[at : at+len(in.pairs)/2] {
			flatImport = append(flatImport, int(s))
		}
		at += len(in.pairs) / 2
		st.importPeers[k], st.importSlots[k] = in.src, flatImport[lo:len(flatImport):len(flatImport)]
	}
	return nil
}

// nextLocalMatch returns the first structure remembered on m, from index
// from on, whose plan coo's triplets follow exactly (matchLocal), with its
// index; nil when there is none.
func (m *RowMap) nextLocalMatch(from int, r *mp.Rank, coo *COO, owner func(int) int) (int, *structure) {
	for i := from; i < len(m.structs); i++ {
		if st := m.structs[i]; st.matchLocal(m, r, coo, owner) {
			return i, st
		}
	}
	return len(m.structs), nil
}

// matchLocal reports whether building from coo would classify and place
// this rank's triplets exactly as st's plan does. The plan is its own
// certificate, so no copy or hash of the triplets it was built from is
// kept: a slot lies in one row and stores one column, hence a triplet whose
// row contains its planned slot and whose column is the one stored there is
// the triplet the plan was made for; an off-rank triplet only has to go to
// the planned peer, which checks what it receives (matchIncoming).
func (st *structure) matchLocal(m *RowMap, r *mp.Rank, coo *COO, owner func(int) int) bool {
	if coo.Len() != len(st.plan) {
		return false
	}
	// The RowMap may have met st in another world; a build there vouched
	// for peers of that world only.
	for _, p := range st.exportPeers {
		if p == r.ID() || p >= r.Size() {
			return false
		}
	}
	for t, s := range st.plan {
		g := coo.Rows[t]
		lr, ok := m.LocalOf(g)
		if s < 0 {
			if ok || owner(g) != st.exportPeers[^s] {
				return false
			}
		} else if !ok || !st.holds(m, lr, int(s), coo.Cols[t]) {
			return false
		}
	}
	return true
}

// matchIncoming reports whether the peers' streams (sorted by source) are
// the ones st's import slots were made for, pair for pair.
func (st *structure) matchIncoming(m *RowMap, ins []incoming) bool {
	if len(ins) != len(st.importPeers) {
		return false
	}
	for k, in := range ins {
		slots := st.importSlots[k]
		if in.src != st.importPeers[k] || len(in.pairs) != 2*len(slots) {
			return false
		}
		for j, s := range slots {
			lr, ok := m.LocalOf(in.pairs[2*j])
			if !ok || !st.holds(m, lr, s, in.pairs[2*j+1]) {
				return false
			}
		}
	}
	return true
}

// holds reports whether value slot s lies in local row lr and stores the
// column with global id g.
func (st *structure) holds(m *RowMap, lr, s, g int) bool {
	return st.rowPtr[lr] <= s && s < st.rowPtr[lr+1] && st.colGlobal(m, st.col[s]) == g
}

// colGlobal returns the global id of local column lc.
func (st *structure) colGlobal(m *RowMap, lc int) int {
	if lc < m.N() {
		return m.Owned[lc]
	}
	return st.ghostCols[lc-m.N()]
}

// Compact declares the matrix's values final: SetValues panics afterwards.
// Call it on operators that are assembled once (mass, pressure, gradients)
// so a stray refill cannot silently change them. It frees nothing — the
// refill plan belongs to the structure the matrix shares with its siblings
// and lives as long as the RowMap.
func (dm *DistMatrix) Compact() {
	dm.compacted = true
}

// SetValues refills the matrix from coo, which must contain exactly the
// triplets (same order) passed to NewDistMatrix, with new values. Off-rank
// contributions are exported to their owners and summed there.
func (dm *DistMatrix) SetValues(coo *COO) {
	st := dm.st
	if dm.compacted {
		panic("sparse: SetValues on compacted matrix")
	}
	if len(coo.Vals) != len(st.plan) {
		panic(fmt.Sprintf("sparse: SetValues with %d values, structure has %d", len(coo.Vals), len(st.plan)))
	}
	dm.A.ZeroVals()
	val := dm.A.Val
	for t, s := range st.plan {
		if s >= 0 {
			val[s] += coo.Vals[t]
		}
	}
	for i, p := range st.exportPeers {
		dm.r.SendF64Gather(p, dm.tag+1, coo.Vals, st.exportIdx[i])
	}
	for i, p := range st.importPeers {
		dm.r.RecvF64AddScatter(p, dm.tag+1, val, st.importSlots[i])
	}
	// Accumulation cost of the numeric refill.
	dm.r.ChargeCompute(float64(st.nLocal), 16*float64(st.nLocal))
}

// NOwned returns the owned row count.
func (dm *DistMatrix) NOwned() int { return dm.rowMap.N() }

// NCols returns the local column-space width (owned + ghost columns).
func (dm *DistMatrix) NCols() int { return dm.A.NCols }

// RowMap returns the matrix's row distribution.
func (dm *DistMatrix) RowMap() *RowMap { return dm.rowMap }

// Importer returns the ghost-column importer (shared with solvers that need
// ghost exchanges of iterate vectors).
func (dm *DistMatrix) Importer() *Importer { return dm.imp }

// Local returns the owned-rows CSR block (local column indexing).
func (dm *DistMatrix) Local() *CSR { return dm.A }

// ColGlobal returns the global id of local column lc.
func (dm *DistMatrix) ColGlobal(lc int) int { return dm.st.colGlobal(dm.rowMap, lc) }

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

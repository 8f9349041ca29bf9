package sparse

import (
	"fmt"
	"slices"
	"sort"

	"heterohpc/internal/mp"
)

// DistMatrix is a row-distributed sparse matrix (the Epetra_FECrsMatrix
// role). Each rank stores the rows of its owned vertices; the column space
// is [owned | ghost-columns], where ghost columns are the off-rank vertices
// its rows couple to. Finite-element assembly may produce contributions to
// rows owned by other ranks; those triplets are exported to their owners
// during construction (symbolically) and on every SetValues (numerically) —
// the GlobalAssemble step of the paper's stack. The assembly COO may be in
// triplet or block form; "contribution t" below is its Vals[t] in both.
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
// (row, col) sequence of this rank's assembly COO — whichever form spells it
// — and of the streams its peers ship. It is immutable once complete and is
// remembered on the RowMap it was built over.
type structure struct {
	// rowPtr/col are the CSR pattern of the owned rows over local columns.
	rowPtr, col []int
	// ghostCols lists ghost column global ids; local column nOwned+i.
	ghostCols []int

	// plan is the numeric-refill plan, one entry per contribution of the
	// structure COO: the CSR value slot a locally-owned one accumulates
	// into, or ^i for an off-rank one shipped to exportPeers[i]. nLocal
	// counts the former. exportIdx groups the structure-COO indices of the
	// off-rank contributions by destination peer; importSlots are the CSR
	// slots for the value streams arriving from each source peer.
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

// NewDistMatrix builds the distributed structure from an assembly COO in
// global ids (coo may contain rows owned by other ranks) and fills the
// values. owner maps any global id to its owning rank; tag reserves message
// tags [tag, tag+4) for this matrix. The coo is not retained; SetValues
// refills take one with the same contribution order.
//
// When rowMap already holds a structure that coo and the peers' streams
// follow contribution for contribution — in whichever form the COO that
// built it was — the matrix adopts it and allocates only its values;
// otherwise it builds one and leaves it on rowMap for the next operator.
// Either way the ranks exchange the same messages and charge the same
// virtual cost.
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
	// A remembered structure this rank's contributions follow stands in for
	// the classification; whether the peers' streams follow it too is known
	// only once they are in. Without one, fresh is the structure this build
	// makes.
	at, st := rowMap.nextLocalMatch(0, r, coo, owner)
	exports := st // whose export lists the exchange follows
	var fresh *structure
	var segRows []int32
	var err error
	if st == nil {
		if fresh, segRows, err = newStructure(r, rowMap, coo, owner); err != nil {
			return nil, err
		}
		exports = fresh
	}

	// Ship off-rank structure (row,col pairs) to owners; receive ours. The
	// pairs are spelled out of the COO's segments only here, one peer's
	// stream at a time in one scratch: SendInts copies its payload.
	numSenders := census(r, exports.exportPeers)
	k, rowIDs, colIDs := coo.segments()
	longest := 0
	for _, idx := range exports.exportIdx {
		longest = max(longest, len(idx))
	}
	pairs := make([]int, 0, 2*longest)
	for i, p := range exports.exportPeers {
		pairs = pairs[:0]
		for _, t := range exports.exportIdx[i] {
			s := t / k
			pairs = append(pairs, rowIDs[s], colIDs[s-s%k+t%k])
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
	// later structure may share its local half (same contributions here,
	// another operator there).
	for st != nil && !st.matchIncoming(rowMap, ins) {
		at, st = rowMap.nextLocalMatch(at+1, r, coo, owner)
	}
	if st != nil {
		return st, nil
	}
	// Build, from the streams already received.
	if fresh == nil {
		if fresh, segRows, err = newStructure(r, rowMap, coo, owner); err != nil {
			return nil, err
		}
	}
	if err = fresh.complete(r, rowMap, coo, segRows, ins); err != nil {
		return nil, err
	}
	rowMap.structs = append(rowMap.structs, fresh)
	return fresh, nil
}

// newStructure starts a structure from this rank's contributions. Each row
// segment of coo (COO.segments: a triplet, or one row of a block) is
// classified once, as locally owned or as an export to its row's owner, and
// the export side is complete on return. segRows holds every segment's local
// row, negative for an export, for complete to build the pattern from.
func newStructure(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int) (st *structure, segRows []int32, err error) {
	// segRows[s] is ^owner while the export peers are being collected. The
	// counts size the export lists exactly (assembly COOs run to millions of
	// contributions, so append growth here dominated construction
	// allocations).
	k, rowIDs, _ := coo.segments()
	st = &structure{plan: make([]int32, coo.Len())}
	segRows = make([]int32, len(rowIDs))
	exportCounts := map[int]int{} // peer -> contribution count
	for s, g := range rowIDs {
		if lr, ok := rowMap.LocalOf(g); ok {
			segRows[s] = int32(lr)
			st.nLocal += k
			continue
		}
		o := owner(g)
		if o == r.ID() || o < 0 || o >= r.Size() {
			return nil, nil, fmt.Errorf("sparse: row %d has bad owner %d", g, o)
		}
		segRows[s] = ^int32(o)
		exportCounts[o] += k
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
	for s, lr := range segRows {
		if lr < 0 {
			pi := exportPeerIdx[int(^lr)]
			for t := s * k; t < (s+1)*k; t++ {
				st.exportIdx[pi] = append(st.exportIdx[pi], t)
				st.plan[t] = ^int32(pi)
			}
		}
	}
	return st, segRows, nil
}

// complete builds the pattern from this rank's local segments (segRows, from
// newStructure) and the peers' streams (sorted by source); the builder puts
// the value slots straight into the plan and the import lists.
func (st *structure) complete(r *mp.Rank, rowMap *RowMap, coo *COO, segRows []int32, ins []incoming) error {
	nPairs := 0
	for _, in := range ins {
		nPairs += len(in.pairs) / 2
	}

	// Local columns of the pattern's segments. The column map is owned
	// columns first (aligned with the row map so the same vector serves as
	// both domain and range), then ghost columns in ascending global id;
	// until that order is known a ghost column is parked as ^(its discovery
	// index).
	nOwned := rowMap.N()
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
	k, _, colIDs := coo.segments()
	seg := rowSegments{k: k, rows: segRows, cols: make([]int32, len(colIDs)), slots: st.plan,
		pairRows: make([]int32, nPairs), pairCols: make([]int32, nPairs), pairSlots: make([]int, nPairs)}
	// The k segments that share a stretch of columns map it once, and only
	// if one of them is local: what a rank merely exports leaves no ghost
	// column here.
	for lo := 0; lo < len(colIDs); lo += k {
		if slices.Max(segRows[lo:lo+k]) < 0 {
			continue
		}
		for i := lo; i < lo+k; i++ {
			seg.cols[i] = localCol(colIDs[i])
		}
	}
	at := 0
	for _, in := range ins {
		for j := 0; j < len(in.pairs); j += 2 {
			lr, ok := rowMap.LocalOf(in.pairs[j])
			if !ok {
				return fmt.Errorf("sparse: received row %d not owned by rank %d",
					in.pairs[j], r.ID())
			}
			seg.pairRows[at], seg.pairCols[at] = int32(lr), localCol(in.pairs[j+1])
			at++
		}
	}
	sort.Ints(st.ghostCols)
	place := make([]int32, len(st.ghostCols)) // discovery index -> local column
	for i, g := range st.ghostCols {
		place[found[g]] = int32(nOwned + i)
	}
	for _, cols := range [][]int32{seg.cols, seg.pairCols} {
		for i, c := range cols {
			if c < 0 {
				cols[i] = place[^c]
			}
		}
	}

	var err error
	st.rowPtr, st.col, err = buildPattern(nOwned, nOwned+len(st.ghostCols), &seg)
	if err != nil {
		return err
	}
	st.importPeers = make([]int, len(ins))
	st.importSlots = make([][]int, len(ins))
	at = 0
	for i, in := range ins {
		n := len(in.pairs) / 2
		st.importPeers[i], st.importSlots[i] = in.src, seg.pairSlots[at:at+n:at+n]
		at += n
	}
	return nil
}

// nextLocalMatch returns the first structure remembered on m, from index
// from on, whose plan coo's contributions follow exactly (matchLocal), with
// its index; nil when there is none.
func (m *RowMap) nextLocalMatch(from int, r *mp.Rank, coo *COO, owner func(int) int) (int, *structure) {
	for i := from; i < len(m.structs); i++ {
		if st := m.structs[i]; st.matchLocal(m, r, coo, owner) {
			return i, st
		}
	}
	return len(m.structs), nil
}

// matchLocal reports whether building from coo would classify and place
// this rank's contributions exactly as st's plan does. The plan is its own
// certificate, so no copy or hash of the contributions it was built from is
// kept: a slot lies in one row and stores one column, hence a contribution
// whose row contains its planned slot and whose column is the one stored
// there is the contribution the plan was made for; an off-rank one only has
// to go to the planned peer, which checks what it receives (matchIncoming).
// A row is looked up once per segment of coo; every contribution is checked.
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
	k, rowIDs, colIDs := coo.segments()
	for s, g := range rowIDs {
		plan, cols := st.plan[s*k:][:k], colIDs[s-s%k:][:k]
		lr, ok := m.LocalOf(g)
		if !ok {
			o := owner(g)
			for _, p := range plan {
				if p >= 0 || st.exportPeers[^p] != o {
					return false
				}
			}
			continue
		}
		for j, p := range plan {
			if p < 0 || !st.holds(m, lr, int(p), cols[j]) {
				return false
			}
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
// contributions (same order) passed to NewDistMatrix, with new values: only
// coo.Vals is read. Off-rank contributions are exported to their owners and
// summed there.
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
	// elimRow/elimAt/elimVal record the zeroed column entries:
	// rhs[elimRow[k]] -= elimVal[k]·g(cols[elimAt[k]]).
	elimRow []int
	elimAt  []int32
	elimVal []float64
	// cols lists the global ids of the distinct boundary columns
	// EliminateRHS needs g at: the owned boundary rows first (cols[i] is row
	// bcRows[i]), then the ghost columns the recorded entries lie in. gval
	// is its per-call value scratch.
	cols []int
	gval []float64
	// colAt[lc] is local column lc's place in cols, offBoundary for a column
	// off the boundary and unplaced for a boundary ghost column no entry has
	// been recorded in yet; kept for Recompute to reuse.
	colAt []int32
}

const (
	offBoundary = -1
	unplaced    = -2
)

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
	if cap(d.colAt) < nc {
		d.colAt = make([]int32, nc)
	}
	// Owned boundary columns take their places in cols at once — they are
	// the boundary rows, in order — so that a row can refer to a boundary
	// column ahead of it.
	colAt := d.colAt[:nc]
	nbc, nghost := 0, 0
	for lc := 0; lc < nc; lc++ {
		switch {
		case !isBC(dm.ColGlobal(lc)):
			colAt[lc] = offBoundary
		case lc < n:
			colAt[lc] = int32(nbc)
			nbc++
		default:
			colAt[lc] = unplaced
			nghost++
		}
	}
	if cap(d.elimRow) == 0 {
		// First build: a counting pass sizes the arrays exactly (cols to
		// within the boundary ghost columns nothing couples to), replacing
		// a dozen append-growth reallocations each with one.
		nelim := 0
		for lr := 0; lr < n; lr++ {
			if colAt[lr] != offBoundary {
				continue
			}
			for s := A.RowPtr[lr]; s < A.RowPtr[lr+1]; s++ {
				if colAt[A.Col[s]] != offBoundary && A.Val[s] != 0 {
					nelim++
				}
			}
		}
		d.bcRows = make([]int, 0, nbc)
		d.elimRow = make([]int, 0, nelim)
		d.elimAt = make([]int32, 0, nelim)
		d.elimVal = make([]float64, 0, nelim)
		d.cols = make([]int, 0, nbc+nghost)
	}
	d.bcRows = d.bcRows[:0]
	d.elimRow = d.elimRow[:0]
	d.elimAt = d.elimAt[:0]
	d.elimVal = d.elimVal[:0]
	d.cols = d.cols[:0]
	for lr := 0; lr < n; lr++ {
		if colAt[lr] != offBoundary { // local row lr ↔ local col lr (aligned maps)
			d.bcRows = append(d.bcRows, lr)
			d.cols = append(d.cols, dm.rowMap.Owned[lr])
		}
	}
	for lr := 0; lr < n; lr++ {
		rowIsBC := colAt[lr] != offBoundary
		for s := A.RowPtr[lr]; s < A.RowPtr[lr+1]; s++ {
			lc := A.Col[s]
			switch {
			case rowIsBC:
				if lc == lr {
					A.Val[s] = 1
				} else {
					A.Val[s] = 0
				}
			case colAt[lc] != offBoundary:
				if A.Val[s] != 0 {
					if colAt[lc] == unplaced {
						colAt[lc] = int32(len(d.cols))
						d.cols = append(d.cols, dm.ColGlobal(lc))
					}
					d.elimRow = append(d.elimRow, lr)
					d.elimAt = append(d.elimAt, colAt[lc])
					d.elimVal = append(d.elimVal, A.Val[s])
				}
				A.Val[s] = 0
			}
		}
	}
	if cap(d.gval) < len(d.cols) {
		d.gval = make([]float64, len(d.cols))
	}
	d.gval = d.gval[:len(d.cols)]
	dm.r.ChargeCompute(float64(A.NNZ()), 12*float64(A.NNZ()))
}

// EliminateRHS folds boundary values into one right-hand side: boundary
// rows get rhs = g, interior rows get rhs_i -= A_ij·g_j for the eliminated
// couplings. g is evaluated once per distinct boundary column, not once per
// coupling (a face vertex has about nine), so it must depend on the global
// id alone for the duration of the call.
func (d *Dirichlet) EliminateRHS(g func(global int) float64, rhs []float64) {
	if len(rhs) < d.dm.NOwned() {
		panic("sparse: rhs shorter than owned rows")
	}
	gval := d.gval
	for i, c := range d.cols {
		gval[i] = g(c)
	}
	for k, lr := range d.elimRow {
		rhs[lr] -= d.elimVal[k] * gval[d.elimAt[k]]
	}
	for i, lr := range d.bcRows {
		rhs[lr] = gval[i]
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

package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"heterohpc/internal/mp"
)

// refDistMatrix is DistMatrix as it was before structures were shared:
// every matrix classifies, exchanges and builds for itself and keeps its
// own pattern and its own two-array refill plan (localTrip + localSlots).
// It is the oracle for the verified-reuse construction: same matrix, same
// messages, same charges, whichever path the new constructor takes.
type refDistMatrix struct {
	r      *mp.Rank
	rowMap *RowMap
	A      *CSR
	// ghostCols lists ghost column global ids; local column nOwned+i.
	ghostCols []int
	imp       *Importer

	nTrip       int
	localTrip   []int // structure-COO indices of locally-owned triplets
	localSlots  []int
	exportPeers []int
	exportIdx   [][]int
	importPeers []int
	importSlots [][]int

	tag int
	// note, if set, is called at every fault check of a refill: before each
	// send, and before and after each receive.
	note func()
}

// refNewDistMatrix is the former newDistMatrix, share == nil for
// NewDistMatrix and prev's importer for NewDistMatrixLike.
func refNewDistMatrix(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int, tag int, share *Importer) (*refDistMatrix, error) {
	coo = expand(coo) // the reference knows triplets only
	dm := &refDistMatrix{r: r, rowMap: rowMap, tag: tag, nTrip: coo.Len()}

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
	for i, p := range dm.exportPeers {
		exportPeerIdx[p] = i
	}
	for t, c := range cls {
		if c >= 0 {
			dm.localTrip = append(dm.localTrip, t)
		} else {
			pi := exportPeerIdx[int(^c)]
			dm.exportIdx[pi] = append(dm.exportIdx[pi], t)
		}
	}

	// Who sends is the transport's to say (mp.Rank.ExchangeInts, held to its
	// own reference there); what is sent, and what is made of it, is the
	// reference's.
	srcs, streams := r.ExchangeInts(dm.exportPeers, func(i int) []int {
		var pairs []int
		for _, t := range dm.exportIdx[i] {
			pairs = append(pairs, coo.Rows[t], coo.Cols[t])
		}
		return pairs
	})
	ins := make([]incoming, len(srcs))
	nPat := nLocal
	for i, src := range srcs {
		ins[i] = incoming{src, streams[i]}
		nPat += len(streams[i]) / 2
	}

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

	nCols := nOwned + len(dm.ghostCols)
	rowPtr, col, slots32, err := refBuildPattern(nOwned, nCols, rows, cols)
	if err != nil {
		return nil, err
	}
	slots := make([]int, len(slots32))
	for i, s := range slots32 {
		slots[i] = int(s)
	}
	dm.A = &CSR{NRows: nOwned, NCols: nCols, RowPtr: rowPtr, Col: col, Val: make([]float64, len(col))}
	dm.localSlots = slots[:nLocal:nLocal]
	dm.importPeers = make([]int, len(ins))
	dm.importSlots = make([][]int, len(ins))
	off := nLocal
	for k, in := range ins {
		n := len(in.pairs) / 2
		dm.importPeers[k], dm.importSlots[k] = in.src, slots[off:off+n:off+n]
		off += n
	}

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
	dm.SetValues(coo)
	return dm, nil
}

// StructureView spells the reference's own lists as a DistMatrix's
// structure: the plan is its two local arrays and its export lists merged.
func (dm *refDistMatrix) StructureView() StructureView {
	plan := make([]int32, dm.nTrip)
	for i, t := range dm.localTrip {
		plan[t] = int32(dm.localSlots[i])
	}
	for i, idx := range dm.exportIdx {
		for _, t := range idx {
			plan[t] = ^int32(i)
		}
	}
	return StructureView{Plan: plan, GhostCols: dm.ghostCols,
		ExportPeers: dm.exportPeers, ImportPeers: dm.importPeers,
		ExportIdx: dm.exportIdx, ImportSlots: dm.importSlots}
}

func (dm *refDistMatrix) SetValues(coo *COO) {
	if len(coo.Vals) != dm.nTrip {
		panic(fmt.Sprintf("sparse: SetValues with %d values, structure has %d", len(coo.Vals), dm.nTrip))
	}
	dm.A.ZeroVals()
	for i, t := range dm.localTrip {
		dm.A.Val[dm.localSlots[i]] += coo.Vals[t]
	}
	for i, p := range dm.exportPeers {
		vals := make([]float64, len(dm.exportIdx[i]))
		for j, t := range dm.exportIdx[i] {
			vals[j] = coo.Vals[t]
		}
		dm.trace()
		mp.Send(dm.r, p, dm.tag+1, vals)
	}
	for i, p := range dm.importPeers {
		dm.trace()
		dm.r.RecvF64AddScatter(p, dm.tag+1, dm.A.Val, dm.importSlots[i])
		dm.trace()
	}
	dm.r.ChargeCompute(float64(len(dm.localTrip)), 16*float64(len(dm.localTrip)))
}

func (dm *refDistMatrix) trace() {
	if dm.note != nil {
		dm.note()
	}
}

// TraceRefills makes dm's refills call note at each of their fault checks;
// nil stops it.
func (dm *refDistMatrix) TraceRefills(note func()) { dm.note = note }

func (dm *refDistMatrix) Local() *CSR         { return dm.A }
func (dm *refDistMatrix) Importer() *Importer { return dm.imp }
func (dm *refDistMatrix) NCols() int          { return dm.rowMap.N() + len(dm.ghostCols) }

func (dm *refDistMatrix) ColGlobal(lc int) int {
	if lc < dm.rowMap.N() {
		return dm.rowMap.Owned[lc]
	}
	return dm.ghostCols[lc-dm.rowMap.N()]
}

// expand returns c in triplet form: a copy of a triplet COO, and for a block
// COO the K² triplets each block stands for, blocks in order and row-major
// within a block — contribution t of c is triplet t of the result. It is how
// the triplet-only references, and tests that need to read or edit single
// (row, col) pairs, see a COO assembled in block form.
func expand(c *COO) *COO {
	out := &COO{Vals: slices.Clone(c.Vals)}
	k, rows, cols := c.segments()
	for s, r := range rows {
		for _, col := range cols[s-s%k:][:k] {
			out.Rows = append(out.Rows, r)
			out.Cols = append(out.Cols, col)
		}
	}
	return out
}

// refBuildPattern is the pattern builder as it was while every contribution
// was a triplet with its own coordinates: perm and slot are sized by the
// triplet count. It is the oracle for the segment builder (buildPattern).
func refBuildPattern[I int | int32](nrows, ncols int, rows, cols []I) (rowPtr, col []int, slot []int32, err error) {
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

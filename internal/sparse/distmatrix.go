package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"heterohpc/internal/mp"
)

// DistMatrix is a row-distributed sparse matrix (the Epetra_FECrsMatrix
// role). Each rank stores the rows of its owned vertices; the column space
// is [owned | ghost-columns], where ghost columns are the off-rank vertices
// its rows couple to. Finite-element assembly may produce contributions to
// rows owned by other ranks; those are exported to their owners during
// construction (symbolically) and on every refill (numerically) — the
// GlobalAssemble step of the paper's stack. The assembly is a COO in
// triplet or block form, or bare Blocks whose values a Refill streams in;
// "contribution t" below is the t-th value of that stream, Vals[t] of a COO.
//
// A matrix is a symbolic structure plus its own values. The structure's
// bulk — CSR pattern and refill plan, its shape — depends only on the (row,
// col) sequences the ranks assemble, in local numbering, so it is interned
// in the world's intern table (mp.Rank.Intern): the operators of one
// finite-element space share one copy, and so do the ranks of one position
// class of a block decomposition — also across the worlds that share a
// table, such as the jobs of one core.Target. A.RowPtr and A.Col of such
// matrices alias the same arrays, on this rank, on others and in later jobs,
// and must be treated as read-only. The values of an operator that is never
// written again are shared the same way once the rank freezes it (Freeze).
type DistMatrix struct {
	r      *mp.Rank
	rowMap *RowMap
	st     structure
	// tag is the first of the matrix's message tags (see Tag).
	tag int
	// A holds the owned rows over local column indices: the structure's
	// pattern, this matrix's values.
	A   *CSR
	imp *Importer
	// exports[i] is the refill link to st.exportPeers[i], imports[i] the one
	// from st.importPeers[i]: the rank's links under refillTag, which every
	// matrix it refills shares.
	exports, imports []*mp.Link

	xbuf []float64
	// rf is SetValues' cursor.
	rf Refill
	// sc is the scratch of the assembly the matrix was built from, until
	// Freeze hands it the values the rank drops.
	sc *segScratch
}

// shape is the rank-independent part of a symbolic structure: everything
// fixed by the (row, col) sequence of a rank's assembly COO — whichever form
// spells it — and of the streams its peers ship, once rows, columns and
// peers are numbered locally. It is immutable from the moment it is interned
// and shared by every rank and operator whose sequences give the same one.
type shape struct {
	// rowPtr/col are the CSR pattern of the owned rows over local columns,
	// the last nGhost of which are ghost columns.
	rowPtr, col []int
	nGhost      int

	// plan is the numeric-refill plan, one entry per contribution: the CSR
	// value slot a locally-owned one accumulates into, or ^i for an off-rank
	// one shipped to the rank's i-th export peer. nLocal counts the former,
	// exportLen[i] the latter per peer; importSlots are the CSR slots for
	// the value streams arriving from each source peer.
	plan        []int32
	nLocal      int
	exportLen   []int
	importSlots [][]int
}

// structure is a shape as one rank holds it: the global ids and rank numbers
// its local numbering stands for there, each list ascending.
type structure struct {
	*shape
	// ghostCols lists ghost column global ids; local column nOwned+i.
	ghostCols   []int
	exportPeers []int
	importPeers []int
}

// incoming is the (row, col) pair stream one source peer shipped.
type incoming struct {
	src   int
	pairs []int
}

// NewDistMatrix builds the distributed structure from an assembly COO in
// global ids (coo may contain rows owned by other ranks) and fills the
// values. owner maps any global id to its owning rank; tag reserves message
// tags [tag, tag+4) for this matrix, of which its importer uses tag+2 and
// tag+3 (NewImporter with tag+2) and tag and tag+1 are spare; they must lie
// in [0, refillTag), for every refill runs under refillTag. The coo is not
// retained; SetValues refills take one with the same contribution order.
//
// When the world's intern table already holds a shape that coo and the
// peers' streams follow contribution for contribution — built by this rank
// for an earlier operator, by another rank or in an earlier job, from an
// assembly of whichever form — the matrix adopts it and allocates only its
// values and its per-rank lists; otherwise it builds one and files it for
// the builds that follow. Either way the ranks exchange the same messages
// and charge the same virtual cost.
func NewDistMatrix(r *mp.Rank, rowMap *RowMap, coo *COO, owner func(int) int, tag int) (*DistMatrix, error) {
	dm, err := newDistMatrix(r, rowMap, coo, owner, tag, nil)
	if err != nil {
		return nil, err
	}
	dm.SetValues(coo)
	return dm, nil
}

// NewDistMatrixBlocks builds the matrix whose contributions blk lists, as
// NewDistMatrix would from a COO of those blocks — the same structure,
// exchanges and charges — but leaves every value zero: its ranks then stream
// the values in with a Refill, which exchanges and charges what the refill
// that ends NewDistMatrix does. Nothing of the values is ever held whole.
//
// A like that is not nil lends its ghost-value importer when the new matrix
// turns out to have the same ghost column set (the common case for several
// operators assembled over one finite-element space, e.g. the Navier–Stokes
// mass/gradient/velocity family). Sharing skips the importer's census
// Allreduce and request handshake and is collective: all ranks must agree on
// like. When the ghost sets differ the matrix silently builds its own
// importer, so passing like is always safe. The symbolic structure is shared
// through the world either way; the importer's handshake is real traffic and
// so can only be skipped by agreement.
func NewDistMatrixBlocks(r *mp.Rank, rowMap *RowMap, blk *Blocks, owner func(int) int, tag int, like *DistMatrix) (*DistMatrix, error) {
	if blk.K <= 0 || len(blk.IDs)%blk.K != 0 {
		return nil, fmt.Errorf("sparse: %d ids do not make blocks of %d", len(blk.IDs), blk.K)
	}
	var share *Importer
	if like != nil {
		share = like.imp
	}
	return newDistMatrix(r, rowMap, blk, owner, tag, share)
}

// newDistMatrix builds the structure and the importer of a matrix, its
// values zero. They live in the array the last Freeze of a matrix built from
// a dropped, when it has their length, and in a new one otherwise.
func newDistMatrix(r *mp.Rank, rowMap *RowMap, a assembly, owner func(int) int, tag int, share *Importer) (*DistMatrix, error) {
	if err := checkTags(tag, 4); err != nil {
		return nil, err
	}
	st, err := structureFor(r, rowMap, a, owner)
	if err != nil {
		return nil, err
	}
	nOwned, nCols := rowMap.N(), rowMap.N()+len(st.ghostCols)
	sc := a.scratch()
	val := sc.spare
	if val != nil && len(val) == len(st.col) {
		clear(val)
		sc.spare = nil
	} else {
		val = make([]float64, len(st.col))
	}
	dm := &DistMatrix{r: r, rowMap: rowMap, st: st, tag: tag, sc: sc}
	dm.A = &CSR{NRows: nOwned, NCols: nCols, RowPtr: st.rowPtr, Col: st.col, Val: val}
	ne := len(st.exportPeers)
	links := make([]*mp.Link, ne+len(st.importPeers))
	dm.exports, dm.imports = links[:ne:ne], links[ne:]
	for i, p := range st.exportPeers {
		dm.exports[i] = r.LinkTo(p, refillTag, st.exportLen[i])
	}
	for i, p := range st.importPeers {
		dm.imports[i] = r.LinkFrom(p, refillTag)
	}

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
	return dm, nil
}

// structureFor classifies this rank's contributions, exchanges the off-rank
// (row, col) pairs and only then looks in the intern table for the shape of
// the matrix that a and the received streams describe: one already
// interned that they follow exactly (bind), otherwise a new one, which is
// interned for the builds that follow. The exchange is the same either way — a rank
// cannot know whether its peers are adopting or building, and set-up traffic
// moves every rank's virtual clock — and it is complete before the lookup,
// so a rank waiting there for a class-mate's build waits for host work only.
func structureFor(r *mp.Rank, rowMap *RowMap, a assembly, owner func(int) int) (structure, error) {
	cl, err := classify(r, rowMap, a, owner)
	if err != nil {
		return structure{}, err
	}

	// Ship off-rank structure (row,col pairs) to owners; receive ours. The
	// pairs are spelled out of the segments only here, each peer's stream at
	// its exact size. The streams stay with the assembly's scratch: the next
	// build from it re-sends one that it would spell alike (the operators of
	// one finite-element space all do), so neither side writes a stream after
	// its first send.
	sc := a.scratch()
	sent := make([][]int, len(cl.exportPeers))
	srcs, streams := r.ExchangeInts(cl.exportPeers, func(i int) []int {
		var old []int
		if j, ok := slices.BinarySearch(sc.sentTo, cl.exportPeers[i]); ok {
			old = sc.sent[j]
		}
		sent[i] = cl.stream(a, i, old)
		return sent[i]
	})
	sc.sentTo, sc.sent = cl.exportPeers, sent
	ins := make([]incoming, len(srcs))
	for i, src := range srcs {
		ins[i] = incoming{src, streams[i]}
	}

	key := cl.hash
	for _, in := range ins {
		key = mix(key, len(in.pairs))
	}
	var st structure
	_, err = r.Intern(key,
		func(v any) bool {
			sh, ok := v.(*shape)
			if ok {
				st, ok = sh.bind(rowMap, a, cl, ins)
			}
			return ok
		},
		func() (any, error) {
			var err error
			st, err = build(r, rowMap, a, cl, ins)
			return st.shape, err
		})
	return st, err
}

// classified is what a rank knows of a build from its own assembly alone.
type classified struct {
	// segRows holds every row segment's local row (COO.segments: a triplet,
	// or one row of a block), or ^i for a segment exported to exportPeers[i],
	// the ascending list of the owners of such rows; exported lists those
	// segments, ascending. exportCounts[i] is the number of contributions
	// that peer is sent.
	segRows, exported []int32
	exportPeers       []int
	exportCounts      []int
	// hash fingerprints the above in local terms — owned row and contribution
	// counts, then the contributions' entries of segRows, a run of equal ones
	// taken once — so class-mates agree on it, and so do the forms of one
	// assembly.
	hash uint64
}

// stream returns the (row, col) pairs of a's contributions to export peer i,
// in contribution order: old itself when it holds exactly those ints —
// compared in place, so a re-sent stream costs no allocation — and otherwise
// a fresh slice, for old may be in a receiver's hands.
func (cl *classified) stream(a assembly, i int, old []int) []int {
	k, rowIDs, colIDs := a.segments()
	n := 2 * cl.exportCounts[i]
	same := len(old) == n
	var pairs []int
	if !same {
		pairs = make([]int, 0, n)
	}
	j := 0
	for _, s := range cl.exported {
		if cl.segRows[s] != ^int32(i) {
			continue
		}
		row := rowIDs[s]
		for _, c := range colIDs[int(s)-int(s)%k:][:k] {
			if same && (old[j] != row || old[j+1] != c) {
				same = false
				pairs = append(make([]int, 0, n), old[:j]...)
			}
			if !same {
				pairs = append(pairs, row, c)
			}
			j += 2
		}
	}
	if same {
		return old
	}
	return pairs
}

// mix folds v into the fingerprint h (FNV-1a over whole words).
func mix(h uint64, v int) uint64 { return (h ^ uint64(v)) * 1099511628211 }

// classify classifies each row segment of a once, as locally owned or as an
// export to its row's owner, into the scratch kept with a, so the operators a
// rank builds from one assembly classify into the same arrays.
func classify(r *mp.Rank, rowMap *RowMap, a assembly, owner func(int) int) (*classified, error) {
	// segRows[s] is ^owner while the export peers are being collected, a
	// neighbour set kept sorted as it grows.
	k, rowIDs, _ := a.segments()
	sc := a.scratch()
	sc.segRows = slices.Grow(sc.segRows[:0], len(rowIDs))[:len(rowIDs)]
	sc.exported = sc.exported[:0]
	cl := &classified{segRows: sc.segRows}
	for s, g := range rowIDs {
		if lr, ok := rowMap.LocalOf(g); ok {
			cl.segRows[s] = int32(lr)
			continue
		}
		o := owner(g)
		if o == r.ID() || o < 0 || o >= r.Size() {
			return nil, fmt.Errorf("sparse: row %d has bad owner %d", g, o)
		}
		cl.segRows[s] = ^int32(o)
		sc.exported = append(sc.exported, int32(s))
		i, known := slices.BinarySearch(cl.exportPeers, o)
		if !known {
			cl.exportPeers = slices.Insert(cl.exportPeers, i, o)
			cl.exportCounts = slices.Insert(cl.exportCounts, i, 0)
		}
		cl.exportCounts[i] += k
	}
	cl.hash = mix(mix(14695981039346656037, rowMap.N()), k*len(rowIDs))
	cl.exported = sc.exported
	for _, s := range cl.exported {
		i, _ := slices.BinarySearch(cl.exportPeers, int(^cl.segRows[s]))
		cl.segRows[s] = ^int32(i)
	}
	prev := int32(math.MinInt32)
	for _, lr := range cl.segRows {
		if lr != prev {
			cl.hash, prev = mix(cl.hash, int(lr)), lr
		}
	}
	return cl, nil
}

// build makes the structure a rank's classified contributions and the peers'
// streams (sorted by source) describe; the pattern builder puts the value
// slots straight into the plan and the import lists. It waits for no other
// rank (see mp.Rank.Intern).
func build(r *mp.Rank, rowMap *RowMap, a assembly, cl *classified, ins []incoming) (structure, error) {
	k, _, colIDs := a.segments()
	segRows := cl.segRows
	n := contributions(a)
	sh := &shape{plan: make([]int32, n), nLocal: n, exportLen: cl.exportCounts}
	st := structure{shape: sh, exportPeers: cl.exportPeers}
	for _, l := range cl.exportCounts {
		sh.nLocal -= l
	}
	for _, s := range cl.exported {
		exp := sh.plan[int(s)*k:][:k]
		for t := range exp {
			exp[t] = segRows[s]
		}
	}

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
	seg := rowSegments{k: k, rows: segRows, cols: make([]int32, len(colIDs)), slots: sh.plan,
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
				return structure{}, fmt.Errorf("sparse: received row %d not owned by rank %d",
					in.pairs[j], r.ID())
			}
			seg.pairRows[at], seg.pairCols[at] = int32(lr), localCol(in.pairs[j+1])
			at++
		}
	}
	sort.Ints(st.ghostCols)
	sh.nGhost = len(st.ghostCols)
	place := make([]int32, sh.nGhost) // discovery index -> local column
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
	sh.rowPtr, sh.col, err = buildPattern(nOwned, nOwned+sh.nGhost, &seg)
	if err != nil {
		return structure{}, err
	}
	st.importPeers = make([]int, len(ins))
	sh.importSlots = make([][]int, len(ins))
	at = 0
	for i, in := range ins {
		n := len(in.pairs) / 2
		st.importPeers[i], sh.importSlots[i] = in.src, seg.pairSlots[at:at+n:at+n]
		at += n
	}
	return st, nil
}

// unbound marks a ghost column bind has not met yet.
const unbound = math.MinInt

// bind reports whether building from the rank's classified contributions and
// the peers' streams (sorted by source) would give exactly sh, and if so
// returns sh as this rank holds it. The plan is its own certificate, so no
// copy or hash of the contributions it was built from is kept: a slot lies
// in one row and stores one column, hence a contribution whose row contains
// its planned slot and whose column is the one stored there is the
// contribution the plan was made for; an off-rank one only has to go to the
// planned peer, which checks what it receives. What a local column stands
// for is fixed for an owned one and is bound here for a ghost: to the global
// id of the first contribution that lands in it, which every later one must
// repeat, which must not be owned, and which must leave the ghost columns in
// ascending order of id — as a build would have numbered them. Every slot
// takes at least one contribution, so a full match binds every ghost column.
// A row is looked up once per segment of a; every contribution is checked.
func (sh *shape) bind(m *RowMap, a assembly, cl *classified, ins []incoming) (structure, bool) {
	if len(sh.rowPtr) != m.N()+1 || contributions(a) != len(sh.plan) || len(ins) != len(sh.importSlots) {
		return structure{}, false
	}
	ghosts := make([]int, sh.nGhost)
	for i := range ghosts {
		ghosts[i] = unbound
	}
	// holds reports whether value slot s lies in [lo, hi), its row's stretch
	// of the pattern, and stores the column with global id g, binding a ghost
	// column seen for the first time. (A negative s, an export marker where a
	// slot is due, lies in no row. The id that serves as the marker is never
	// bound: a build that has it stays private.)
	nOwned, owned, col := m.N(), m.Owned, sh.col
	holds := func(lo, hi, s, g int) bool {
		if s < lo || s >= hi {
			return false
		}
		lc := col[s] - nOwned
		if lc < 0 {
			return owned[lc+nOwned] == g
		}
		if ghosts[lc] == unbound {
			if _, mine := m.LocalOf(g); !mine {
				ghosts[lc] = g
			}
		}
		return ghosts[lc] == g && g != unbound
	}
	k, _, colIDs := a.segments()
	for b := 0; b < len(colIDs); b += k { // the k segments that share their columns
		cols := colIDs[b:][:k]
		for s, lr := range cl.segRows[b:][:k] {
			plan := sh.plan[(b+s)*k:][:k]
			if lr < 0 {
				for _, p := range plan {
					if p != lr {
						return structure{}, false
					}
				}
				continue
			}
			lo, hi := sh.rowPtr[lr], sh.rowPtr[lr+1]
			for j, p := range plan {
				if !holds(lo, hi, int(p), cols[j]) {
					return structure{}, false
				}
			}
		}
	}
	importPeers := make([]int, len(ins))
	for i, in := range ins {
		slots := sh.importSlots[i]
		if len(in.pairs) != 2*len(slots) {
			return structure{}, false
		}
		importPeers[i] = in.src
		for j, s := range slots {
			lr, ok := m.LocalOf(in.pairs[2*j])
			if !ok || !holds(sh.rowPtr[lr], sh.rowPtr[lr+1], s, in.pairs[2*j+1]) {
				return structure{}, false
			}
		}
	}
	for i := 1; i < len(ghosts); i++ {
		if ghosts[i-1] >= ghosts[i] {
			return structure{}, false
		}
	}
	return structure{shape: sh, ghostCols: ghosts, exportPeers: cl.exportPeers, importPeers: importPeers}, true
}

// colGlobal returns the global id of local column lc.
func (st *structure) colGlobal(m *RowMap, lc int) int {
	if lc < m.N() {
		return m.Owned[lc]
	}
	return st.ghostCols[lc-m.N()]
}

// Freeze declares the matrix's values final on this rank and shares them
// through the world's intern table: A.Val becomes the first array filed
// there whose every bit equals it — the ranks of one position class of a
// block decomposition assemble a constant operator bit for bit alike — and
// this rank's own is dropped; when none is, the rank files its own for the
// ranks, and the jobs that share the table, that come after. From then on every path that writes the values (SetValues, Refill,
// NewDirichlet, Recompute and CSR.ZeroVals) panics
// before it touches them. Freeze is host-only — no message, charge or
// journal event — so it is rank-local; a second call finds the array the
// first left and changes nothing.
//
// A dropped array is not freed but handed to the next matrix the rank builds
// from the same assembly, which zeroes it and takes it as its own; an array
// the rank filed is never handed over. A caller must therefore not hold
// A.Val across Freeze: read it again from A afterwards.
func (dm *DistMatrix) Freeze() { dm.freeze(valuesKey(dm.A.Val)) }

// frozenVals is a value array as the world's intern table files it, a type
// of its own so that a value array and a shape filed under one key are told
// apart.
type frozenVals []float64

// freeze is Freeze with the key given, so that a test can make keys collide.
func (dm *DistMatrix) freeze(key uint64) {
	own := dm.A.Val
	v, _ := dm.r.Intern(key,
		func(v any) bool {
			w, ok := v.(frozenVals)
			return ok && SameBits(w, own)
		},
		func() (any, error) { return frozenVals(own), nil })
	w := v.(frozenVals)
	if dm.sc != nil && len(own) > 0 && &w[0] != &own[0] {
		dm.sc.spare = own
	}
	dm.A.Val, dm.A.frozen, dm.sc = w, true, nil
}

// valuesKey fingerprints a value array: its length and every value's bits.
func valuesKey(val []float64) uint64 {
	h := mix(14695981039346656037, len(val))
	for _, x := range val {
		h = mix(h, int(math.Float64bits(x)))
	}
	return h
}

// SameBits reports whether a and b hold the same bits, so +0 and −0 differ
// and a NaN equals only its own bit pattern.
func SameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// SetValues refills the matrix from coo, which must contain exactly the
// contributions (same order) the matrix was built from, with new values:
// only coo.Vals is read. It is a Refill fed coo.Vals in one piece.
func (dm *DistMatrix) SetValues(coo *COO) {
	dm.rf.begin(dm, len(coo.Vals), "SetValues")
	dm.rf.add(coo.Vals)
	dm.rf.Finish()
}

// refillTag is the tag of the refill links: one per export peer and
// direction, which every matrix a rank refills shares. No caller may
// reserve it (checkTags). Refills are collective and run one at a time, so
// the runs of successive refills pass over a link in the order they are
// sent.
const refillTag = 1 << 30

// checkTags rejects a caller's tags [tag, tag+n) unless they lie in
// [0, refillTag): below are the collectives', and refillTag is the refills'.
func checkTags(tag, n int) error {
	if tag < 0 || tag > refillTag-n {
		return fmt.Errorf("sparse: tags [%d, %d) leave [0, %d)", tag, tag+n, refillTag)
	}
	return nil
}

// Refill is one numeric refill of a DistMatrix in progress. The matrix's
// contributions are fed in the order it was built from and land as they
// arrive: a locally owned one is added into its value slot, an off-rank one
// is written into the payload slot of its owner's refill link, each peer's
// run in contribution order. Finish sends the slots, adds what the peers
// send in and charges the accumulation, so the refill's values are never
// held as one array: a finite-element space evaluates its elements straight
// into the matrix (fem.Space.Refill).
//
// Val is zeroed, the local contributions are added in contribution order,
// then each source peer's in ascending peer order: the values are bit for
// bit those of SetValues on a COO holding the same stream — SetValues is
// such a feed — with the same messages and charges. The zero Refill is
// ready for use; one serves any number of matrices in turn. A rank refills
// one matrix at a time: Begin takes the slots of links other matrices
// share, and taking one before Finish has sent it panics in mp. A refill
// that panics, on its stream's length or at Begin on a link another refill
// holds, gives back the slots it took, unsent.
type Refill struct {
	dm *DistMatrix
	// t counts the contributions fed; slots[i] is export peer i's payload
	// slot and at[i] where its next contribution goes.
	t     int
	at    []int
	slots [][]float64
}

// Begin starts refilling dm from a stream of n contributions. A stream of
// the wrong length or a frozen dm panics here, before dm is touched; every
// rank of dm must refill it together. A refill this cursor has in flight is
// given up.
func (rf *Refill) Begin(dm *DistMatrix, n int) { rf.begin(dm, n, "Refill") }

func (rf *Refill) begin(dm *DistMatrix, n int, caller string) {
	dm.A.mustWrite(caller)
	st := dm.st
	if n != len(st.plan) {
		panic(fmt.Sprintf("sparse: %s with %d values, structure has %d", caller, n, len(st.plan)))
	}
	if rf.dm != nil {
		rf.abandon()
	}
	rf.dm, rf.t, rf.slots = dm, 0, rf.slots[:0]
	defer func() {
		if len(rf.slots) < len(dm.exports) {
			// Another refill holds a link: give back the slots taken.
			rf.abandon()
		}
	}()
	for i, l := range dm.exports {
		rf.slots = append(rf.slots, dm.r.TakeSlot(l, st.exportLen[i]))
	}
	rf.at = append(rf.at[:0], make([]int, len(rf.slots))...)
	dm.A.ZeroVals()
}

// Add feeds the stream's next len(vals) contributions. The additions are
// charged by Finish, with the rest of the accumulation.
func (rf *Refill) Add(vals []float64) { rf.add(vals) }

func (rf *Refill) add(vals []float64) {
	plan := rf.dm.st.plan
	if len(vals) > len(plan)-rf.t {
		msg := fmt.Sprintf("sparse: Refill fed %d values, structure has %d", rf.t+len(vals), len(plan))
		rf.abandon()
		panic(msg)
	}
	val := rf.dm.A.Val
	for j, s := range plan[rf.t:][:len(vals)] {
		if s >= 0 {
			val[s] += vals[j]
		} else {
			rf.slots[^s][rf.at[^s]] = vals[j]
			rf.at[^s]++
		}
	}
	rf.t += len(vals)
}

// Finish sends each export peer its slot in peer order, adds in the runs
// the import peers send, and charges the accumulation. A stream that fell
// short panics here, before anything is sent.
func (rf *Refill) Finish() {
	dm := rf.dm
	st := dm.st
	if rf.t != len(st.plan) {
		msg := fmt.Sprintf("sparse: Refill fed %d values, structure has %d", rf.t, len(st.plan))
		rf.abandon()
		panic(msg)
	}
	// The slots are the links' once sent: a send or receive that unwinds on
	// a failure leaves the cursor nothing to give back.
	rf.dm = nil
	for _, l := range dm.exports {
		dm.r.SendSlot(l)
	}
	for i, l := range dm.imports {
		dm.r.RecvAddScatter(l, dm.A.Val, st.importSlots[i])
	}
	// Accumulation cost of the numeric refill.
	dm.r.ChargeCompute(float64(st.nLocal), 16*float64(st.nLocal))
}

// abandon gives back the slots the refill holds, unsent, and ends it.
func (rf *Refill) abandon() {
	for i := range rf.slots {
		rf.dm.r.DropSlot(rf.dm.exports[i])
	}
	rf.dm, rf.slots = nil, rf.slots[:0]
}

// NOwned returns the owned row count.
func (dm *DistMatrix) NOwned() int { return dm.rowMap.N() }

// NCols returns the local column-space width (owned + ghost columns).
func (dm *DistMatrix) NCols() int { return dm.A.NCols }

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

// Tag returns the first of the message tags the matrix was built with,
// which names the operator: krylov.NewPrecond shares an ILU(0) factor
// between class-mates' matrices of one shape and tag, so two operators a
// rank preconditions at once must not share a tag.
func (dm *DistMatrix) Tag() int { return dm.tag }

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
	A.mustWrite("Dirichlet elimination")
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
		rhs[lr] -= float64(d.elimVal[k] * gval[d.elimAt[k]])
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

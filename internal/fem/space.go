package fem

import (
	"fmt"
	"math"

	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
)

// Space is one rank's scalar Q1 finite-element space over a distributed
// mesh: the local patch, row distribution, vertex ownership, and the patch
// importer used to accumulate right-hand sides across ranks.
type Space struct {
	R      *mp.Rank
	M      *mesh.Mesh
	L      *mesh.Local
	RowMap *sparse.RowMap
	// Owner maps any global vertex id to its owning rank.
	Owner func(int) int
	// El is the uniform element integrator.
	El *Element

	patchImp *sparse.Importer
	// vecBuf is the persistent patch-length staging buffer of
	// AssembleVector (zeroed at each use).
	vecBuf []float64

	// blocks lists every local element's 8 vertex ids, in element order: the
	// structure all the space's matrices are built from, made by the first
	// NewMatrix. refill is the cursor their values stream through, and ke the
	// element matrix it is fed from.
	blocks sparse.Blocks
	refill sparse.Refill
	ke     [8][8]float64
}

// ElemMatrix evaluates the 8×8 matrix of global element e into out and
// charges the work to ch.
type ElemMatrix func(e int, out *[8][8]float64, ch sparse.Charger)

// NewSpaceBlock builds the space for the px×py×pz block decomposition with
// this rank's block. tag reserves message tags [tag, tag+2).
func NewSpaceBlock(r *mp.Rank, m *mesh.Mesh, px, py, pz, tag int) (*Space, error) {
	if px*py*pz != r.Size() {
		return nil, fmt.Errorf("fem: %d blocks for %d ranks", px*py*pz, r.Size())
	}
	l, err := mesh.NewLocalFromBlock(m, px, py, pz, r.ID())
	if err != nil {
		return nil, err
	}
	owner := func(g int) int { return mesh.VertexOwnerOnBlocks(m, px, py, pz, g) }
	return newSpace(r, m, l, owner, tag)
}

// NewSpaceParts builds the space for an arbitrary element partition
// (part[e] = rank). tag reserves message tags [tag, tag+2).
func NewSpaceParts(r *mp.Rank, m *mesh.Mesh, part []int, tag int) (*Space, error) {
	l, err := mesh.NewLocalFromParts(m, part, r.ID())
	if err != nil {
		return nil, err
	}
	owner := func(g int) int { return mesh.VertexOwnerOnParts(m, part, g) }
	return newSpace(r, m, l, owner, tag)
}

func newSpace(r *mp.Rank, m *mesh.Mesh, l *mesh.Local, owner func(int) int, tag int) (*Space, error) {
	hx, hy, hz := m.H()
	el, err := NewElement(hx, hy, hz)
	if err != nil {
		return nil, err
	}
	s := &Space{
		R:      r,
		M:      m,
		L:      l,
		RowMap: sparse.RowMapOf(l.OwnedIndex()),
		Owner:  owner,
		El:     el,
	}
	ghosts := l.VertGlobal[l.NumOwned:]
	s.patchImp, err = sparse.NewImporter(r, s.RowMap, ghosts, owner, tag)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NOwned returns the owned dof count.
func (s *Space) NOwned() int { return s.RowMap.N() }

// NPatch returns the local patch size (owned + patch ghosts).
func (s *Space) NPatch() int { return s.L.NumVerts() }

// PatchImporter returns the importer over the local patch layout
// [owned | patch ghosts].
func (s *Space) PatchImporter() *sparse.Importer { return s.patchImp }

// ElemCorner returns the minimal-vertex coordinates of global element e.
func (s *Space) ElemCorner(e int) [3]float64 {
	i, j, k := s.M.ElemIJK(e)
	hx, hy, hz := s.M.H()
	return [3]float64{
		s.M.Box.Lo[0] + float64(i)*hx,
		s.M.Box.Lo[1] + float64(j)*hy,
		s.M.Box.Lo[2] + float64(k)*hz,
	}
}

// NewMatrix assembles the distributed matrix of the operator whose element
// matrices elem evaluates; tag reserves message tags [tag, tag+4), and like,
// if not nil, is a matrix of this space whose ghost importer the new one may
// share (see sparse.NewDistMatrixBlocks). No value is held between an
// element and the matrix: each element matrix goes straight into it through
// the space's refill cursor.
//
// The elements are evaluated twice. The platform assembles before it
// exchanges the matrix structure, and the structure exchange must find the
// assembly charged; but the values have nowhere to go until the structure
// exists. So a first pass charges elem's work to the rank and the assembly
// charge follows, as AssembleMatrix makes them, and drops the values; the
// structure is built from the space's element ids; then a second pass, its
// charges discarded, streams the values in, and the off-rank ones are
// shipped as NewDistMatrix ships them. Clock, messages and values are those
// of AssembleMatrix followed by NewDistMatrix.
func (s *Space) NewMatrix(elem ElemMatrix, tag int, like *sparse.DistMatrix) (*sparse.DistMatrix, error) {
	for _, e := range s.L.Elems {
		elem(e, &s.ke, s.R)
	}
	nt := float64(64 * len(s.L.Elems))
	s.R.ChargeCompute(nt, 24*nt)
	if s.blocks.IDs == nil {
		ids := make([]int, 0, 8*len(s.L.Elems))
		for _, e := range s.L.Elems {
			vs := s.M.ElemVerts(e)
			ids = append(ids, vs[:]...)
		}
		s.blocks = sparse.Blocks{K: 8, IDs: ids}
	}
	dm, err := sparse.NewDistMatrixBlocks(s.R, s.RowMap, &s.blocks, s.Owner, tag, like)
	if err != nil {
		return nil, err
	}
	s.stream(dm, elem, sparse.NopCharger{})
	s.refill.Finish()
	return dm, nil
}

// Refill re-evaluates every element matrix of an operator built by
// NewMatrix and streams them into dm: the per-step reassembly of a matrix
// whose structure exists. Clock, messages and values are those of
// AssembleMatrixValues followed by SetValues. A dm whose structure counts
// other than this space's 64 contributions per element panics before it is
// touched.
func (s *Space) Refill(dm *sparse.DistMatrix, elem ElemMatrix) {
	s.stream(dm, elem, s.R)
	nt := float64(64 * len(s.L.Elems))
	s.R.ChargeCompute(nt, 8*nt)
	s.refill.Finish()
}

// stream begins a refill of dm and feeds it every element matrix, in
// element order, row-major: the contribution order of AssembleMatrix.
func (s *Space) stream(dm *sparse.DistMatrix, elem ElemMatrix, ch sparse.Charger) {
	rf := &s.refill
	rf.Begin(dm, 64*len(s.L.Elems))
	for _, e := range s.L.Elems {
		elem(e, &s.ke, ch)
		for a := range s.ke {
			rf.Add(s.ke[a][:])
		}
	}
}

// AssembleMatrix fills coo (reset first) with element contributions in a
// deterministic order: for each local element, elemMat produces the 8×8
// matrix, which enters coo as one block over the element's global vertex ids
// (sparse.COO.AddBlock) — the 64 (row, col) pairs it stands for are never
// written out on the host. The virtual platform assembles triplets all the
// same: the charge is that of scattering 64 of them per element. The
// resulting COO is suitable both for sparse.NewDistMatrix and for later
// SetValues refills (the contribution order is stable across calls: element
// by element, row-major). It is the assembly for callers that want the
// element values as a COO; NewMatrix and Refill keep none.
func (s *Space) AssembleMatrix(coo *sparse.COO, elemMat func(e int, out *[8][8]float64)) {
	coo.Reset()
	coo.Grow(64 * len(s.L.Elems))
	var ke [8][8]float64
	var flat [64]float64
	for _, e := range s.L.Elems {
		elemMat(e, &ke)
		for a := range ke {
			copy(flat[8*a:], ke[a][:])
		}
		vs := s.M.ElemVerts(e)
		coo.AddBlock(vs[:], flat[:])
	}
	nt := float64(64 * len(s.L.Elems))
	s.R.ChargeCompute(nt, 24*nt)
}

// AssembleMatrixValues recomputes only the values of a COO previously
// built by AssembleMatrix, appending them to coo.Vals[:0] in the identical
// deterministic order: the per-step reassembly of an operator whose
// structure exists, ready for SetValues.
func (s *Space) AssembleMatrixValues(coo *sparse.COO, elemMat func(e int, out *[8][8]float64)) {
	coo.Vals = coo.Vals[:0]
	var ke [8][8]float64
	for _, e := range s.L.Elems {
		elemMat(e, &ke)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				coo.Vals = append(coo.Vals, ke[a][b])
			}
		}
	}
	nt := float64(64 * len(s.L.Elems))
	s.R.ChargeCompute(nt, 8*nt)
}

// AssembleVector accumulates element load vectors into an owned-length
// vector: contributions to patch-ghost vertices are exported to their
// owners (the vector GlobalAssemble). out must have length ≥ NOwned and is
// overwritten.
func (s *Space) AssembleVector(out []float64, elemVec func(e int, out *[8]float64)) {
	if s.vecBuf == nil {
		s.vecBuf = make([]float64, s.NPatch())
	}
	buf := s.vecBuf
	for i := range buf {
		buf[i] = 0
	}
	var fe [8]float64
	for _, e := range s.L.Elems {
		elemVec(e, &fe)
		vs := s.M.ElemVerts(e)
		for a := 0; a < 8; a++ {
			buf[s.L.G2L(vs[a])] += fe[a]
		}
	}
	nt := float64(8 * len(s.L.Elems))
	s.R.ChargeCompute(nt, 24*nt)
	s.patchImp.ExportAdd(buf)
	copy(out[:s.NOwned()], buf[:s.NOwned()])
}

// Interpolate evaluates f at owned vertices into out (length ≥ NOwned).
func (s *Space) Interpolate(f func(x, y, z float64) float64, out []float64) {
	for i, g := range s.RowMap.Owned {
		x, y, z := s.M.VertexCoord(g)
		out[i] = f(x, y, z)
	}
	s.R.ChargeCompute(20*float64(s.NOwned()), 8*float64(s.NOwned()))
}

// MaxNodalError returns the global max |u_i − f(x_i)| over all owned dofs.
func (s *Space) MaxNodalError(u []float64, f func(x, y, z float64) float64) float64 {
	var local float64
	for i, g := range s.RowMap.Owned {
		x, y, z := s.M.VertexCoord(g)
		if d := math.Abs(u[i] - f(x, y, z)); d > local {
			local = d
		}
	}
	s.R.ChargeCompute(22*float64(s.NOwned()), 8*float64(s.NOwned()))
	return s.R.AllreduceScalar(mp.OpMax, local)
}

// L2NodalError returns the global discrete L2 error
// sqrt(Σ(u_i−f(x_i))²·h³), a mesh-weighted nodal norm.
func (s *Space) L2NodalError(u []float64, f func(x, y, z float64) float64) float64 {
	var local float64
	for i, g := range s.RowMap.Owned {
		x, y, z := s.M.VertexCoord(g)
		d := u[i] - f(x, y, z)
		local += d * d
	}
	s.R.ChargeCompute(24*float64(s.NOwned()), 8*float64(s.NOwned()))
	hx, hy, hz := s.M.H()
	return math.Sqrt(s.R.AllreduceScalar(mp.OpSum, local) * hx * hy * hz)
}

// IsBoundary reports whether global vertex id v is on the domain boundary.
func (s *Space) IsBoundary(v int) bool { return s.M.OnBoundary(v) }

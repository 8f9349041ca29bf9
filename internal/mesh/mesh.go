// Package mesh generates the structured hexahedral meshes used by the
// paper's two test cases. Both problems are posed on a cube; the paper's
// weak-scaling experiments load every MPI process with a 20³-element block
// of a global (20·p)³ mesh. The mesh is therefore represented implicitly:
// vertex coordinates, element connectivity and boundary predicates are all
// computed from indices, so a rank can instantiate only its own block of an
// arbitrarily large global mesh (the role NetGen/GMSH + ParMETIS played in
// the paper's pipeline).
package mesh

import "fmt"

// Box is an axis-aligned hexahedral domain.
type Box struct {
	Lo, Hi [3]float64
}

// UnitBox is the unit cube [0,1]³.
var UnitBox = Box{Lo: [3]float64{0, 0, 0}, Hi: [3]float64{1, 1, 1}}

// SymmetricBox is the cube [-1,1]³ used by the Ethier–Steinman benchmark.
var SymmetricBox = Box{Lo: [3]float64{-1, -1, -1}, Hi: [3]float64{1, 1, 1}}

// Mesh is a structured hexahedral mesh: Nx·Ny·Nz trilinear (Q1) elements on
// a box. Vertices are numbered lexicographically, x fastest:
//
//	v(i,j,k) = i + (Nx+1)·(j + (Ny+1)·k),  0 ≤ i ≤ Nx, …
//
// Elements likewise with Nx, Ny, Nz. The struct is immutable after creation
// and safe for concurrent use.
type Mesh struct {
	Nx, Ny, Nz int
	Box        Box
	hx, hy, hz float64
}

// NewUnitCube returns an n×n×n mesh of the unit cube. It panics for n < 1;
// a caller that has not validated n uses NewBox, which returns the error.
func NewUnitCube(n int) *Mesh {
	m, err := NewBox(UnitBox, n, n, n)
	if err != nil {
		panic(err)
	}
	return m
}

// NewBox returns an nx×ny×nz mesh of box.
func NewBox(box Box, nx, ny, nz int) (*Mesh, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("mesh: non-positive element count %d×%d×%d", nx, ny, nz)
	}
	for d := 0; d < 3; d++ {
		if box.Hi[d] <= box.Lo[d] {
			return nil, fmt.Errorf("mesh: degenerate box in dimension %d", d)
		}
	}
	return &Mesh{
		Nx: nx, Ny: ny, Nz: nz,
		Box: box,
		hx:  (box.Hi[0] - box.Lo[0]) / float64(nx),
		hy:  (box.Hi[1] - box.Lo[1]) / float64(ny),
		hz:  (box.Hi[2] - box.Lo[2]) / float64(nz),
	}, nil
}

// NumElems returns the global element count.
func (m *Mesh) NumElems() int { return m.Nx * m.Ny * m.Nz }

// NumVerts returns the global vertex count.
func (m *Mesh) NumVerts() int { return (m.Nx + 1) * (m.Ny + 1) * (m.Nz + 1) }

// H returns the element edge lengths.
func (m *Mesh) H() (hx, hy, hz float64) { return m.hx, m.hy, m.hz }

// VertexID maps lattice coordinates to a global vertex id.
func (m *Mesh) VertexID(i, j, k int) int {
	return i + (m.Nx+1)*(j+(m.Ny+1)*k)
}

// VertexIJK inverts VertexID.
func (m *Mesh) VertexIJK(v int) (i, j, k int) {
	nx1 := m.Nx + 1
	ny1 := m.Ny + 1
	i = v % nx1
	j = (v / nx1) % ny1
	k = v / (nx1 * ny1)
	return
}

// VertexCoord returns the coordinates of global vertex v.
func (m *Mesh) VertexCoord(v int) (x, y, z float64) {
	i, j, k := m.VertexIJK(v)
	return m.Box.Lo[0] + float64(i)*m.hx,
		m.Box.Lo[1] + float64(j)*m.hy,
		m.Box.Lo[2] + float64(k)*m.hz
}

// ElemID maps lattice coordinates to a global element id.
func (m *Mesh) ElemID(i, j, k int) int {
	return i + m.Nx*(j+m.Ny*k)
}

// ElemIJK inverts ElemID.
func (m *Mesh) ElemIJK(e int) (i, j, k int) {
	i = e % m.Nx
	j = (e / m.Nx) % m.Ny
	k = e / (m.Nx * m.Ny)
	return
}

// ElemVerts returns the 8 global vertex ids of element e in the standard
// trilinear local ordering (x fastest, then y, then z).
func (m *Mesh) ElemVerts(e int) [8]int {
	i, j, k := m.ElemIJK(e)
	v000 := m.VertexID(i, j, k)
	nx1 := m.Nx + 1
	nxy := nx1 * (m.Ny + 1)
	return [8]int{
		v000, v000 + 1,
		v000 + nx1, v000 + nx1 + 1,
		v000 + nxy, v000 + nxy + 1,
		v000 + nxy + nx1, v000 + nxy + nx1 + 1,
	}
}

// ElemCenter returns the centroid of element e.
func (m *Mesh) ElemCenter(e int) (x, y, z float64) {
	i, j, k := m.ElemIJK(e)
	return m.Box.Lo[0] + (float64(i)+0.5)*m.hx,
		m.Box.Lo[1] + (float64(j)+0.5)*m.hy,
		m.Box.Lo[2] + (float64(k)+0.5)*m.hz
}

// OnBoundary reports whether global vertex v lies on the domain boundary.
func (m *Mesh) OnBoundary(v int) bool {
	i, j, k := m.VertexIJK(v)
	return i == 0 || i == m.Nx || j == 0 || j == m.Ny || k == 0 || k == m.Nz
}

// ElemNeighbors appends the face-adjacent neighbours of element e (up to 6)
// to buf and returns the extended slice. This is the element dual graph that
// graph partitioners (the ParMETIS role) operate on.
func (m *Mesh) ElemNeighbors(e int, buf []int) []int {
	i, j, k := m.ElemIJK(e)
	if i > 0 {
		buf = append(buf, m.ElemID(i-1, j, k))
	}
	if i < m.Nx-1 {
		buf = append(buf, m.ElemID(i+1, j, k))
	}
	if j > 0 {
		buf = append(buf, m.ElemID(i, j-1, k))
	}
	if j < m.Ny-1 {
		buf = append(buf, m.ElemID(i, j+1, k))
	}
	if k > 0 {
		buf = append(buf, m.ElemID(i, j, k-1))
	}
	if k < m.Nz-1 {
		buf = append(buf, m.ElemID(i, j, k+1))
	}
	return buf
}

package mesh

import (
	"fmt"
	"sort"

	"heterohpc/internal/idindex"
)

// Block is a contiguous range of elements in each lattice dimension
// (Lo inclusive, Hi exclusive). The weak-scaling experiments decompose the
// global cube into p×p×p blocks, one per rank — the balanced, minimal-
// surface partition ParMETIS converges to on a structured cube.
type Block struct {
	Lo, Hi [3]int
}

// NumElems returns the number of elements in the block.
func (b Block) NumElems() int {
	return (b.Hi[0] - b.Lo[0]) * (b.Hi[1] - b.Lo[1]) * (b.Hi[2] - b.Lo[2])
}

// splitRange divides n items into parts near-equal chunks: the first n%parts
// chunks get one extra item. It returns the bounds of chunk idx.
func splitRange(n, parts, idx int) (lo, hi int) {
	q, r := n/parts, n%parts
	if idx < r {
		lo = idx * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (idx-r)*q
	return lo, lo + q
}

// chunkOf inverts splitRange: it returns the chunk index containing item i.
func chunkOf(n, parts, i int) int {
	q, r := n/parts, n%parts
	if i < r*(q+1) {
		return i / (q + 1)
	}
	return r + (i-r*(q+1))/q
}

// Decompose splits the mesh into px×py×pz blocks, returned in rank order
// rank = bx + px·(by + py·bz). Every element belongs to exactly one block.
func Decompose(m *Mesh, px, py, pz int) ([]Block, error) {
	if px < 1 || py < 1 || pz < 1 {
		return nil, fmt.Errorf("mesh: non-positive block grid %d×%d×%d", px, py, pz)
	}
	if px > m.Nx || py > m.Ny || pz > m.Nz {
		return nil, fmt.Errorf("mesh: block grid %d×%d×%d exceeds mesh %d×%d×%d",
			px, py, pz, m.Nx, m.Ny, m.Nz)
	}
	blocks := make([]Block, 0, px*py*pz)
	for c := 0; c < pz; c++ {
		zlo, zhi := splitRange(m.Nz, pz, c)
		for b := 0; b < py; b++ {
			ylo, yhi := splitRange(m.Ny, py, b)
			for a := 0; a < px; a++ {
				xlo, xhi := splitRange(m.Nx, px, a)
				blocks = append(blocks, Block{
					Lo: [3]int{xlo, ylo, zlo},
					Hi: [3]int{xhi, yhi, zhi},
				})
			}
		}
	}
	return blocks, nil
}

// CubeGrid returns (p,p,p) when ranks = p³, or an error otherwise. The
// paper's weak-scaling series uses exactly the cubic process counts
// 1, 8, 27, …, 1000.
func CubeGrid(ranks int) (int, error) {
	for p := 1; p*p*p <= ranks; p++ {
		if p*p*p == ranks {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mesh: %d is not a cube", ranks)
}

// Local is one rank's view of a distributed mesh: its own elements plus the
// vertices they touch. Vertices are split into owned (assembled rows live
// here) and ghost (owned by another rank; values are imported before use).
// Local vertex numbering places all owned vertices first, each section in
// ascending global order.
type Local struct {
	// M is the global mesh (element connectivity is computed from it).
	M *Mesh
	// Rank is the owning rank.
	Rank int
	// Elems lists the global element ids assigned to this rank.
	Elems []int
	// VertGlobal maps local vertex index -> global vertex id; owned first.
	VertGlobal []int
	// NumOwned is the count of owned vertices (a prefix of VertGlobal).
	NumOwned int
	// GhostOwner[i] is the owner rank of ghost vertex NumOwned+i.
	GhostOwner []int

	// owned and ghost index the two sections of VertGlobal (see G2L).
	owned, ghost idindex.Index
}

// NumVerts returns the total (owned + ghost) local vertex count.
func (l *Local) NumVerts() int { return len(l.VertGlobal) }

// NumGhosts returns the ghost vertex count.
func (l *Local) NumGhosts() int { return len(l.VertGlobal) - l.NumOwned }

// IsOwned reports whether local vertex lv is owned by this rank.
func (l *Local) IsOwned(lv int) bool { return lv < l.NumOwned }

// G2L returns the local index of global vertex g, or -1 if g is not a
// vertex of this rank's patch.
func (l *Local) G2L(g int) int {
	if lv, ok := l.owned.Lookup(g); ok {
		return lv
	}
	if i, ok := l.ghost.Lookup(g); ok {
		return l.NumOwned + i
	}
	return -1
}

// OwnedIndex returns the index of the owned vertices (VertGlobal[:NumOwned]),
// shared, not copied: the space's row map is built on it, so the owned ids
// are indexed once.
func (l *Local) OwnedIndex() idindex.Index { return l.owned }

// IndexBytes returns the host bytes G2L's index holds beyond VertGlobal.
func (l *Local) IndexBytes() int { return l.owned.Bytes() + l.ghost.Bytes() }

// vertexOwnerBlock returns the rank owning lattice vertex (i,j,k) under a
// px×py×pz block decomposition: interface vertex layers belong to the
// higher block, which is the block of the element with the same index.
func vertexOwnerBlock(m *Mesh, px, py, pz, i, j, k int) int {
	bi := chunkOf(m.Nx, px, min(i, m.Nx-1))
	bj := chunkOf(m.Ny, py, min(j, m.Ny-1))
	bk := chunkOf(m.Nz, pz, min(k, m.Nz-1))
	return bi + px*(bj+py*bk)
}

// VertexOwnerOnBlocks returns the rank owning global vertex v under the
// px×py×pz block decomposition. It is a pure function of indices, usable
// for any vertex of the global mesh (including vertices outside the calling
// rank's patch, as required when resolving ghost matrix columns).
func VertexOwnerOnBlocks(m *Mesh, px, py, pz, v int) int {
	i, j, k := m.VertexIJK(v)
	return vertexOwnerBlock(m, px, py, pz, i, j, k)
}

// VertexOwnerOnParts returns the rank owning global vertex v under an
// arbitrary element partition (lowest rank among the owners of the elements
// containing v).
func VertexOwnerOnParts(m *Mesh, part []int, v int) int {
	return vertexOwnerParts(m, part, v)
}

// NewLocalFromBlock builds rank's local mesh for the px×py×pz block
// decomposition without touching any other block's data (so a 1000-rank job
// never materialises the 200³ global mesh).
func NewLocalFromBlock(m *Mesh, px, py, pz, rank int) (*Local, error) {
	nranks := px * py * pz
	if rank < 0 || rank >= nranks {
		return nil, fmt.Errorf("mesh: rank %d out of %d", rank, nranks)
	}
	if px > m.Nx || py > m.Ny || pz > m.Nz {
		return nil, fmt.Errorf("mesh: block grid %d×%d×%d exceeds mesh %d×%d×%d",
			px, py, pz, m.Nx, m.Ny, m.Nz)
	}
	bx := rank % px
	by := (rank / px) % py
	bz := rank / (px * py)
	xlo, xhi := splitRange(m.Nx, px, bx)
	ylo, yhi := splitRange(m.Ny, py, by)
	zlo, zhi := splitRange(m.Nz, pz, bz)

	l := &Local{M: m, Rank: rank}
	l.Elems = make([]int, 0, (xhi-xlo)*(yhi-ylo)*(zhi-zlo))
	for k := zlo; k < zhi; k++ {
		for j := ylo; j < yhi; j++ {
			for i := xlo; i < xhi; i++ {
				l.Elems = append(l.Elems, m.ElemID(i, j, k))
			}
		}
	}

	// The owned section is sized for the whole patch, so the ghosts join it
	// in VertGlobal without a copy.
	owned := make([]int, 0, (xhi-xlo+1)*(yhi-ylo+1)*(zhi-zlo+1))
	var ghosts []int
	for k := zlo; k <= zhi; k++ {
		for j := ylo; j <= yhi; j++ {
			for i := xlo; i <= xhi; i++ {
				v := m.VertexID(i, j, k)
				if vertexOwnerBlock(m, px, py, pz, i, j, k) == rank {
					owned = append(owned, v)
				} else {
					ghosts = append(ghosts, v)
				}
			}
		}
	}
	l.finish(owned, ghosts, func(v int) int { return VertexOwnerOnBlocks(m, px, py, pz, v) })
	return l, nil
}

// NewLocalFromParts builds rank's local mesh from an arbitrary element
// partition (part[e] = owning rank), the path used with the RCB and greedy
// partitioners. A vertex is owned by the lowest rank among the owners of
// the elements containing it.
func NewLocalFromParts(m *Mesh, part []int, rank int) (*Local, error) {
	if len(part) != m.NumElems() {
		return nil, fmt.Errorf("mesh: partition has %d entries for %d elements",
			len(part), m.NumElems())
	}
	l := &Local{M: m, Rank: rank}
	vertSeen := map[int]bool{}
	for e, r := range part {
		if r == rank {
			l.Elems = append(l.Elems, e)
			for _, v := range m.ElemVerts(e) {
				vertSeen[v] = true
			}
		}
	}
	var owned, ghosts []int
	for v := range vertSeen {
		if vertexOwnerParts(m, part, v) == rank {
			owned = append(owned, v)
		} else {
			ghosts = append(ghosts, v)
		}
	}
	l.finish(owned, ghosts, func(v int) int { return vertexOwnerParts(m, part, v) })
	return l, nil
}

// vertexOwnerParts returns the lowest rank owning an element that contains
// global vertex v. The containing elements of lattice vertex (i,j,k) are the
// up-to-8 elements with indices in {i-1,i}×{j-1,j}×{k-1,k}.
func vertexOwnerParts(m *Mesh, part []int, v int) int {
	i, j, k := m.VertexIJK(v)
	owner := -1
	for dk := -1; dk <= 0; dk++ {
		ek := k + dk
		if ek < 0 || ek >= m.Nz {
			continue
		}
		for dj := -1; dj <= 0; dj++ {
			ej := j + dj
			if ej < 0 || ej >= m.Ny {
				continue
			}
			for di := -1; di <= 0; di++ {
				ei := i + di
				if ei < 0 || ei >= m.Nx {
					continue
				}
				r := part[m.ElemID(ei, ej, ek)]
				if owner < 0 || r < owner {
					owner = r
				}
			}
		}
	}
	return owner
}

// finish sorts the owned/ghost sections, indexes them and looks up each
// ghost's owner.
func (l *Local) finish(owned, ghosts []int, owner func(v int) int) {
	sort.Ints(owned)
	sort.Ints(ghosts)
	l.NumOwned = len(owned)
	l.VertGlobal = append(owned, ghosts...)
	// The owned section's capacity ends at NumOwned: an append to it (or to
	// the row map that shares it) cannot write over the ghosts.
	l.owned = idindex.New(l.VertGlobal[:l.NumOwned:l.NumOwned])
	l.ghost = idindex.New(l.VertGlobal[l.NumOwned:])
	l.GhostOwner = make([]int, len(ghosts))
	for i, gv := range ghosts {
		l.GhostOwner[i] = owner(gv)
	}
}

package mesh

import (
	"testing"
	"testing/quick"
)

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox(UnitBox, 0, 1, 1); err == nil {
		t.Error("zero element count accepted")
	}
	bad := Box{Lo: [3]float64{0, 0, 0}, Hi: [3]float64{1, 0, 1}}
	if _, err := NewBox(bad, 1, 1, 1); err == nil {
		t.Error("degenerate box accepted")
	}
}

func TestCounts(t *testing.T) {
	m := NewUnitCube(4)
	if m.NumElems() != 64 {
		t.Errorf("NumElems = %d", m.NumElems())
	}
	if m.NumVerts() != 125 {
		t.Errorf("NumVerts = %d", m.NumVerts())
	}
	hx, hy, hz := m.H()
	if hx != 0.25 || hy != 0.25 || hz != 0.25 {
		t.Errorf("H = %v %v %v", hx, hy, hz)
	}
}

func TestVertexRoundTrip(t *testing.T) {
	m, _ := NewBox(UnitBox, 3, 4, 5)
	for v := 0; v < m.NumVerts(); v++ {
		i, j, k := m.VertexIJK(v)
		if m.VertexID(i, j, k) != v {
			t.Fatalf("vertex %d round-trips to %d", v, m.VertexID(i, j, k))
		}
	}
}

func TestElemRoundTrip(t *testing.T) {
	m, _ := NewBox(UnitBox, 3, 4, 5)
	for e := 0; e < m.NumElems(); e++ {
		i, j, k := m.ElemIJK(e)
		if m.ElemID(i, j, k) != e {
			t.Fatalf("elem %d round-trips to %d", e, m.ElemID(i, j, k))
		}
	}
}

func TestVertexCoordCorners(t *testing.T) {
	m, _ := NewBox(SymmetricBox, 2, 2, 2)
	x, y, z := m.VertexCoord(0)
	if x != -1 || y != -1 || z != -1 {
		t.Errorf("corner 0 at (%v,%v,%v)", x, y, z)
	}
	x, y, z = m.VertexCoord(m.NumVerts() - 1)
	if x != 1 || y != 1 || z != 1 {
		t.Errorf("last corner at (%v,%v,%v)", x, y, z)
	}
}

func TestElemVertsGeometry(t *testing.T) {
	m := NewUnitCube(3)
	for e := 0; e < m.NumElems(); e++ {
		cx, cy, cz := m.ElemCenter(e)
		verts := m.ElemVerts(e)
		// All 8 vertices must be exactly half an edge from the center in
		// each coordinate.
		hx, hy, hz := m.H()
		for _, v := range verts {
			x, y, z := m.VertexCoord(v)
			if abs(abs(x-cx)-hx/2) > 1e-12 || abs(abs(y-cy)-hy/2) > 1e-12 ||
				abs(abs(z-cz)-hz/2) > 1e-12 {
				t.Fatalf("elem %d vertex %d not on corner: (%v,%v,%v) center (%v,%v,%v)",
					e, v, x, y, z, cx, cy, cz)
			}
		}
		// Local ordering: vertex 1 differs from vertex 0 in x only, etc.
		x0, y0, z0 := m.VertexCoord(verts[0])
		x1, y1, z1 := m.VertexCoord(verts[1])
		if x1 <= x0 || y1 != y0 || z1 != z0 {
			t.Fatalf("elem %d local ordering broken", e)
		}
	}
}

func TestOnBoundaryCount(t *testing.T) {
	m := NewUnitCube(4)
	count := 0
	for v := 0; v < m.NumVerts(); v++ {
		if m.OnBoundary(v) {
			count++
		}
	}
	// Boundary vertices of a 5³ lattice: 5³ − 3³ interior = 125 − 27 = 98.
	if count != 98 {
		t.Fatalf("boundary vertex count = %d, want 98", count)
	}
}

func TestElemNeighborsSymmetricAndCounted(t *testing.T) {
	m, _ := NewBox(UnitBox, 3, 3, 3)
	adj := make(map[[2]int]bool)
	total := 0
	for e := 0; e < m.NumElems(); e++ {
		nbrs := m.ElemNeighbors(e, nil)
		total += len(nbrs)
		for _, n := range nbrs {
			adj[[2]int{e, n}] = true
		}
	}
	// Interior faces of a 3³ cube: 3 directions × 2 planes × 9 faces = 54
	// adjacencies, each counted twice.
	if total != 108 {
		t.Fatalf("total adjacency entries = %d, want 108", total)
	}
	for key := range adj {
		if !adj[[2]int{key[1], key[0]}] {
			t.Fatalf("adjacency %v not symmetric", key)
		}
	}
}

func TestDecomposeCoversAllElements(t *testing.T) {
	m, _ := NewBox(UnitBox, 7, 5, 6)
	blocks, err := Decompose(m, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 12 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	covered := make([]int, m.NumElems())
	totalElems := 0
	for _, b := range blocks {
		for k := b.Lo[2]; k < b.Hi[2]; k++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					covered[m.ElemID(i, j, k)]++
					totalElems++
				}
			}
		}
	}
	if totalElems != m.NumElems() {
		t.Fatalf("blocks hold %d elements, mesh has %d", totalElems, m.NumElems())
	}
	for e, c := range covered {
		if c != 1 {
			t.Fatalf("element %d covered %d times", e, c)
		}
	}
}

func TestDecomposeValidation(t *testing.T) {
	m := NewUnitCube(2)
	if _, err := Decompose(m, 0, 1, 1); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := Decompose(m, 3, 1, 1); err == nil {
		t.Error("grid larger than mesh accepted")
	}
}

func TestCubeGrid(t *testing.T) {
	for p, want := range map[int]int{1: 1, 8: 2, 27: 3, 64: 4, 125: 5, 1000: 10} {
		got, err := CubeGrid(p)
		if err != nil || got != want {
			t.Errorf("CubeGrid(%d) = %d, %v", p, got, err)
		}
	}
	for _, p := range []int{0, 2, 7, 100} {
		if _, err := CubeGrid(p); err == nil {
			t.Errorf("CubeGrid(%d) accepted", p)
		}
	}
}

func TestSplitRangeProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw%100) + 1
		p := int(pRaw%uint8(n)) + 1
		prevHi := 0
		for idx := 0; idx < p; idx++ {
			lo, hi := splitRange(n, p, idx)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo < n/p || hi-lo > n/p+1 {
				return false // imbalance beyond one element
			}
			// chunkOf must invert membership.
			for i := lo; i < hi; i++ {
				if chunkOf(n, p, i) != idx {
					return false
				}
			}
			prevHi = hi
		}
		return prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every vertex must be owned by exactly one rank, and local meshes must
// jointly cover all elements exactly once (block path).
func TestLocalFromBlockConsistency(t *testing.T) {
	m, _ := NewBox(UnitBox, 5, 4, 6)
	const px, py, pz = 2, 2, 3
	nranks := px * py * pz
	vertOwners := make(map[int][]int)
	elemSeen := make([]int, m.NumElems())
	for rank := 0; rank < nranks; rank++ {
		l, err := NewLocalFromBlock(m, px, py, pz, rank)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range l.Elems {
			elemSeen[e]++
		}
		for lv := 0; lv < l.NumOwned; lv++ {
			gv := l.VertGlobal[lv]
			vertOwners[gv] = append(vertOwners[gv], rank)
		}
		// Local invariants.
		if len(l.GhostOwner) != len(l.VertGlobal)-l.NumOwned {
			t.Fatalf("rank %d ghost owner list mismatched", rank)
		}
		for i, owner := range l.GhostOwner {
			if owner == rank {
				t.Fatalf("rank %d ghost %d owned by itself", rank, i)
			}
		}
		checkG2L(t, l)
	}
	for e, c := range elemSeen {
		if c != 1 {
			t.Fatalf("element %d assigned %d times", e, c)
		}
	}
	for v := 0; v < m.NumVerts(); v++ {
		if len(vertOwners[v]) != 1 {
			t.Fatalf("vertex %d owned by %v", v, vertOwners[v])
		}
	}
}

// Ghost owner bookkeeping must agree with actual ownership (block path).
func TestLocalFromBlockGhostOwnersCorrect(t *testing.T) {
	m := NewUnitCube(6)
	const px, py, pz = 2, 3, 2
	nranks := px * py * pz
	owner := make(map[int]int)
	locals := make([]*Local, nranks)
	for rank := 0; rank < nranks; rank++ {
		l, err := NewLocalFromBlock(m, px, py, pz, rank)
		if err != nil {
			t.Fatal(err)
		}
		locals[rank] = l
		for lv := 0; lv < l.NumOwned; lv++ {
			owner[l.VertGlobal[lv]] = rank
		}
	}
	for rank, l := range locals {
		for i, want := range l.GhostOwner {
			gv := l.VertGlobal[l.NumOwned+i]
			if owner[gv] != want {
				t.Fatalf("rank %d ghost %d: recorded owner %d, actual %d",
					rank, gv, want, owner[gv])
			}
		}
	}
}

// The parts-based path must satisfy the same global invariants for an
// arbitrary partition.
func TestLocalFromPartsConsistency(t *testing.T) {
	m := NewUnitCube(4)
	part := make([]int, m.NumElems())
	for e := range part {
		part[e] = (e * 7) % 5 // scrambled 5-way partition
	}
	vertOwnerCount := make(map[int]int)
	elemSeen := make([]int, m.NumElems())
	owner := make(map[int]int)
	locals := make([]*Local, 5)
	for rank := 0; rank < 5; rank++ {
		l, err := NewLocalFromParts(m, part, rank)
		if err != nil {
			t.Fatal(err)
		}
		locals[rank] = l
		for _, e := range l.Elems {
			elemSeen[e]++
			if part[e] != rank {
				t.Fatalf("rank %d got element %d of rank %d", rank, e, part[e])
			}
		}
		for lv := 0; lv < l.NumOwned; lv++ {
			vertOwnerCount[l.VertGlobal[lv]]++
			owner[l.VertGlobal[lv]] = rank
		}
	}
	for e, c := range elemSeen {
		if c != 1 {
			t.Fatalf("element %d assigned %d times", e, c)
		}
	}
	for v := 0; v < m.NumVerts(); v++ {
		if vertOwnerCount[v] != 1 {
			t.Fatalf("vertex %d owned %d times", v, vertOwnerCount[v])
		}
	}
	for rank, l := range locals {
		for i, want := range l.GhostOwner {
			gv := l.VertGlobal[l.NumOwned+i]
			if owner[gv] != want {
				t.Fatalf("rank %d ghost %d: recorded owner %d, actual %d",
					rank, gv, want, owner[gv])
			}
		}
	}
}

func TestLocalFromPartsValidation(t *testing.T) {
	m := NewUnitCube(2)
	if _, err := NewLocalFromParts(m, []int{0}, 0); err == nil {
		t.Error("short partition accepted")
	}
}

func TestLocalFromBlockValidation(t *testing.T) {
	m := NewUnitCube(2)
	if _, err := NewLocalFromBlock(m, 2, 2, 2, 8); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := NewLocalFromBlock(m, 3, 1, 1, 0); err == nil {
		t.Error("grid exceeding mesh accepted")
	}
}

// Block and parts construction must agree when the partition is the block
// partition.
func TestBlockAndPartsAgree(t *testing.T) {
	m, _ := NewBox(UnitBox, 4, 4, 4)
	const px, py, pz = 2, 2, 1
	blocks, _ := Decompose(m, px, py, pz)
	part := make([]int, m.NumElems())
	for rank, b := range blocks {
		for k := b.Lo[2]; k < b.Hi[2]; k++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					part[m.ElemID(i, j, k)] = rank
				}
			}
		}
	}
	for rank := 0; rank < px*py*pz; rank++ {
		lb, err := NewLocalFromBlock(m, px, py, pz, rank)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := NewLocalFromParts(m, part, rank)
		if err != nil {
			t.Fatal(err)
		}
		if len(lb.Elems) != len(lp.Elems) {
			t.Fatalf("rank %d: %d vs %d elements", rank, len(lb.Elems), len(lp.Elems))
		}
		if len(lb.VertGlobal) != len(lp.VertGlobal) {
			t.Fatalf("rank %d: %d vs %d vertices", rank, len(lb.VertGlobal), len(lp.VertGlobal))
		}
		// Note: ownership rules differ (higher-block vs lowest-rank), so only
		// the vertex sets are compared, not the owned counts.
		for i := range lb.VertGlobal {
			setB := map[int]bool{}
			for _, v := range lb.VertGlobal {
				setB[v] = true
			}
			if !setB[lp.VertGlobal[i]] {
				t.Fatalf("rank %d vertex sets differ", rank)
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// refG2L is the global-to-local vertex map Local held before its idindex:
// the oracle G2L is held to.
func refG2L(l *Local) map[int]int {
	g2l := make(map[int]int, len(l.VertGlobal))
	for lv, gv := range l.VertGlobal {
		g2l[gv] = lv
	}
	return g2l
}

// checkG2L asks G2L for every vertex of the global mesh and one id past
// either end, and holds each answer to the map's (-1 where the map has none).
func checkG2L(t *testing.T, l *Local) {
	t.Helper()
	ref := refG2L(l)
	for g := -1; g <= l.M.NumVerts(); g++ {
		want, ok := ref[g]
		if !ok {
			want = -1
		}
		if got := l.G2L(g); got != want {
			t.Fatalf("rank %d: G2L(%d) = %d, want %d", l.Rank, g, got, want)
		}
	}
}

// TestG2LMatchesMap: on block and scrambled-partition locals, whose ghost
// sections are indexed by bitmap or by binary search, G2L agrees with the
// map it replaced.
func TestG2LMatchesMap(t *testing.T) {
	m := NewUnitCube(6)
	for rank := 0; rank < 27; rank++ {
		l, err := NewLocalFromBlock(m, 3, 3, 3, rank)
		if err != nil {
			t.Fatal(err)
		}
		checkG2L(t, l)
	}
	// At 5³ elements a rank on a 75³ mesh, an interior block's ghosts lie
	// too sparse in their span for a bitmap; its owned vertices do not.
	l, err := NewLocalFromBlock(NewUnitCube(75), 15, 15, 15, 7+15*(7+15*7))
	if err != nil {
		t.Fatal(err)
	}
	if l.owned.Bytes() == 0 || l.ghost.Bytes() != 0 {
		t.Fatalf("index bytes: owned %d, ghost %d; want a bitmap and a binary search", l.owned.Bytes(), l.ghost.Bytes())
	}
	checkG2L(t, l)
	part := make([]int, m.NumElems())
	for e := range part {
		part[e] = (e * 7) % 5
	}
	for rank := 0; rank < 5; rank++ {
		l, err := NewLocalFromParts(m, part, rank)
		if err != nil {
			t.Fatal(err)
		}
		checkG2L(t, l)
	}
}

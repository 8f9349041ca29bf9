package sparse

import (
	"math"
	"slices"
	"sort"
	"testing"

	"heterohpc/internal/mesh"
	"heterohpc/internal/partition"
	"heterohpc/internal/stats"
)

// refRowMap is the row map's lookup as it was before the idindex: a dense
// int32 table over the span of the owned ids, or a map where that span is
// wide. It is kept as the oracle LocalOf is held to.
type refRowMap struct {
	owned []int
	g2l   map[int]int
	dense []int32 // dense[g-lo] = local index + 1 (0 = unowned)
	lo    int
}

const refDenseRowMapLimit = 1 << 20

func newRefRowMap(owned []int) *refRowMap {
	cp := append([]int(nil), owned...)
	sort.Ints(cp)
	m := &refRowMap{owned: cp}
	if n := len(cp); n > 0 && uint(cp[n-1])-uint(cp[0]) < refDenseRowMapLimit {
		m.lo = cp[0]
		m.dense = make([]int32, cp[n-1]-cp[0]+1)
		for l, g := range cp {
			m.dense[g-m.lo] = int32(l + 1)
		}
		return m
	}
	m.g2l = make(map[int]int, len(cp))
	for l, g := range cp {
		m.g2l[g] = l
	}
	return m
}

func (m *refRowMap) localOf(g int) (int, bool) {
	if m.dense != nil {
		i := uint(g) - uint(m.lo)
		if i >= uint(len(m.dense)) {
			return 0, false
		}
		if l := m.dense[i]; l > 0 {
			return int(l - 1), true
		}
		return 0, false
	}
	l, ok := m.g2l[g]
	return l, ok
}

// checkRowMapAgainstRef probes rm and the reference built from the same ids
// below, around and inside their span, above it and at the ends of the int
// range, and fails on the first disagreement.
func checkRowMapAgainstRef(t *testing.T, name string, owned []int, rng *stats.RNG) {
	t.Helper()
	rm, ref := NewRowMap(owned), newRefRowMap(owned)
	if !slices.Equal(rm.Owned, ref.owned) {
		t.Fatalf("%s: Owned = %v, want %v", name, rm.Owned, ref.owned)
	}
	probes := []int{math.MinInt, math.MinInt + 1, -1, 0, 1, math.MaxInt - 1, math.MaxInt}
	for _, g := range rm.Owned {
		probes = append(probes, g-64, g-1, g, g+1, g+64) // wraps at the ends of the int range: still a probe
	}
	if n := len(rm.Owned); n > 0 {
		lo, hi := rm.Owned[0], rm.Owned[n-1]
		for i := 0; i < 200; i++ {
			probes = append(probes, lo-70+rng.Intn(140), hi-70+rng.Intn(140), lo+rng.Intn(int(min(uint(hi)-uint(lo), 1<<40)+1)))
		}
	}
	for _, g := range probes {
		l, ok := rm.LocalOf(g)
		wl, wok := ref.localOf(g)
		if ok != wok || l != wl {
			t.Fatalf("%s: LocalOf(%d) = %d, %v; the dense table says %d, %v", name, g, l, ok, wl, wok)
		}
	}
}

// TestRowMapMatchesDenseTable: LocalOf answers as the dense table and map it
// replaced do, for id sets of every shape the old table handled — narrow and
// wide spans, anywhere in the id space — and for the owned ids of every rank
// of block and RCB decompositions, where the index's bitmap and its binary
// search both serve.
func TestRowMapMatchesDenseTable(t *testing.T) {
	rng := stats.NewRNG(20260902)
	strided := func(lo, step, n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = lo + i*step
		}
		return ids
	}
	for _, tc := range []struct {
		name  string
		owned []int
	}{
		{"contiguous from zero", strided(0, 1, 50)},
		{"contiguous far out", strided(3<<40, 1, 50)},
		{"strided planes", strided(900_000_000, 121, 40)},
		{"unsorted", []int{9, 2, 5, 70, 64, 63}},
		{"single id", []int{123_456_789_012}},
		{"negative ids", strided(-70, 3, 30)},
		{"wider than the table", strided(1<<33, 1<<18, 20)},
		{"the whole int range", []int{math.MinInt, -1, 0, math.MaxInt}},
		{"top of the int range", strided(math.MaxInt-9, 1, 10)},
		{"bottom of the int range", strided(math.MinInt, 1, 10)},
		{"nothing owned", nil},
	} {
		checkRowMapAgainstRef(t, tc.name, tc.owned, rng)
	}
	for _, g := range []struct{ p, n int }{{2, 3}, {3, 2}, {4, 1}} {
		m := mesh.NewUnitCube(g.p * g.n)
		for rank := 0; rank < g.p*g.p*g.p; rank++ {
			l, err := mesh.NewLocalFromBlock(m, g.p, g.p, g.p, rank)
			if err != nil {
				t.Fatal(err)
			}
			checkRowMapAgainstRef(t, "block", l.VertGlobal[:l.NumOwned], rng)
			if rm := RowMapOf(l.OwnedIndex()); !slices.Equal(rm.Owned, l.VertGlobal[:l.NumOwned]) {
				t.Fatalf("block rank %d: the shared row map holds %v", rank, rm.Owned)
			}
		}
	}
	m := mesh.NewUnitCube(6)
	part, err := partition.RCB(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 7; rank++ {
		l, err := mesh.NewLocalFromParts(m, part, rank)
		if err != nil {
			t.Fatal(err)
		}
		checkRowMapAgainstRef(t, "rcb", l.VertGlobal[:l.NumOwned], rng)
	}
}

// TestRowMapIndexFootprint sizes the vertex index of one rank at the
// paper's per-rank size, n=20 elements a side, on the smallest and largest
// block geometries of its weak-scaling series (P=8 and P=1000), without a
// world. The row map shares the mesh's owned index, so the index is all a
// rank holds to look a vertex up. Its bytes per owned vertex stay under one
// bound whatever P is, and at P=1000 it holds a fraction of the dense
// table's 4 B per id of span.
func TestRowMapIndexFootprint(t *testing.T) {
	const n = 20
	for _, p := range []int{2, 10} {
		m := mesh.NewUnitCube(p * n)
		last := p*p*p - 1
		for _, rank := range []int{0, last / 2, last} {
			l, err := mesh.NewLocalFromBlock(m, p, p, p, rank)
			if err != nil {
				t.Fatal(err)
			}
			rm := RowMapOf(l.OwnedIndex())
			if &rm.Owned[0] != &l.VertGlobal[0] {
				t.Fatalf("P=%d rank %d: the row map copies the owned ids", p*p*p, rank)
			}
			owned := l.VertGlobal[:l.NumOwned]
			idx := l.IndexBytes()
			table := 4 * (owned[len(owned)-1] - owned[0] + 1)
			perOwned := float64(idx) / float64(l.NumOwned)
			t.Logf("P=%d rank %d: %d owned, %d ghosts; index %d B (%.1f B per owned vertex), dense table was %d B",
				p*p*p, rank, l.NumOwned, len(l.VertGlobal)-l.NumOwned, idx, perOwned, table)
			// The index's own bound is 48 B per id it holds plus a word per
			// section; a block's ghosts are under a fifth of its owned
			// vertices, so that is under 60 B per owned vertex at any P.
			if perOwned > 48+12 {
				t.Errorf("P=%d rank %d: index holds %.1f B per owned vertex, bound is 60", p*p*p, rank, perOwned)
			}
			if p == 10 && (idx > 400_000 || 10*idx > table) {
				t.Errorf("P=1000 rank %d: index holds %d B, want ≤ 0.4 MB and a tenth of the %d B dense table", rank, idx, table)
			}
		}
	}
}

package sparse

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/netmodel"
	"heterohpc/internal/partition"
	"heterohpc/internal/vclock"
)

func newWorld(t *testing.T, nranks int) *mp.World {
	t.Helper()
	topo, err := mp.BlockTopology(nranks, 2)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.IBDDR4X, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runWorld(t *testing.T, nranks int, body func(r *mp.Rank) error) *mp.World {
	t.Helper()
	w := newWorld(t, nranks)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestImporterExchange distributes ids 0..11 over 3 ranks (block of 4) and
// checks ghost exchange and export-add.
func TestImporterExchange(t *testing.T) {
	const nranks = 3
	owner := func(g int) int { return g / 4 }
	runWorld(t, nranks, func(r *mp.Rank) error {
		owned := []int{r.ID() * 4, r.ID()*4 + 1, r.ID()*4 + 2, r.ID()*4 + 3}
		rm := NewRowMap(owned)
		// Each rank ghosts the first id of the next rank (cyclically), except
		// the last rank which ghosts two ids.
		var ghosts []int
		switch r.ID() {
		case 0:
			ghosts = []int{4}
		case 1:
			ghosts = []int{8}
		case 2:
			ghosts = []int{0, 1}
		}
		im, err := NewImporter(r, rm, ghosts, owner, 100)
		if err != nil {
			return err
		}
		x := make([]float64, 4+len(ghosts))
		for i, g := range owned {
			x[i] = float64(g * 10)
		}
		im.Exchange(x)
		for i, g := range ghosts {
			if x[4+i] != float64(g*10) {
				return fmt.Errorf("rank %d ghost %d = %v, want %v", r.ID(), g, x[4+i], float64(g*10))
			}
		}
		// ExportAdd: put 1 into each ghost slot; owners should accumulate.
		for i := range ghosts {
			x[4+i] = 1
		}
		im.ExportAdd(x)
		// id 0 and id 1 each receive +1 from rank 2; id 4 +1 from rank 0;
		// id 8 +1 from rank 1.
		want := map[int]float64{0: 1, 1: 11, 4: 41, 8: 81}
		for i, g := range owned {
			w, ok := want[g]
			if !ok {
				w = float64(g * 10)
			} else if g == 0 {
				w = 0*10 + 1
			}
			if x[i] != w {
				return fmt.Errorf("rank %d owned %d = %v, want %v", r.ID(), g, x[i], w)
			}
		}
		// Ghost slots must be zeroed by ExportAdd.
		for i := range ghosts {
			if x[4+i] != 0 {
				return fmt.Errorf("ghost slot not zeroed")
			}
		}
		return nil
	})
}

func TestImporterRejectsSelfGhost(t *testing.T) {
	runWorld(t, 1, func(r *mp.Rank) error {
		rm := NewRowMap([]int{0, 1})
		_, err := NewImporter(r, rm, []int{0}, func(int) int { return 0 }, 50)
		if err == nil {
			return fmt.Errorf("self-ghost accepted")
		}
		return nil
	})
}

// elemValue is a deterministic pseudo-random element contribution used to
// compare serial and distributed assembly.
func elemValue(e, a, b int) float64 {
	h := uint64(e*1000003 + a*8191 + b*131)
	h ^= h >> 13
	h *= 0x9e3779b97f4a7c15
	return 1 + float64(h%1000)/1000
}

// assembleSerialDense builds the reference global dense matrix.
func assembleSerialDense(m *mesh.Mesh) [][]float64 {
	n := m.NumVerts()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for e := 0; e < m.NumElems(); e++ {
		vs := m.ElemVerts(e)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				d[vs[a]][vs[b]] += elemValue(e, a, b)
			}
		}
	}
	return d
}

func TestDistMatrixMatchesSerialAssembly(t *testing.T) {
	m := mesh.NewUnitCube(3)
	const nranks = 4
	part, err := partition.RCB(m, nranks)
	if err != nil {
		t.Fatal(err)
	}
	dense := assembleSerialDense(m)
	n := m.NumVerts()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) + 1)
	}
	wantY := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wantY[i] += dense[i][j] * x[j]
		}
	}

	var mu sync.Mutex
	gotY := make([]float64, n)
	owner := func(g int) int { return mesh.VertexOwnerOnParts(m, part, g) }
	runWorld(t, nranks, func(r *mp.Rank) error {
		l, err := mesh.NewLocalFromParts(m, part, r.ID())
		if err != nil {
			return err
		}
		var coo COO
		for _, e := range l.Elems {
			vs := m.ElemVerts(e)
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					coo.Add(vs[a], vs[b], elemValue(e, a, b))
				}
			}
		}
		rm := NewRowMap(l.VertGlobal[:l.NumOwned])
		dm, err := NewDistMatrix(r, rm, &coo, owner, 200)
		if err != nil {
			return err
		}
		xo := make([]float64, dm.NOwned())
		for i, g := range rm.Owned {
			xo[i] = x[g]
		}
		yo := make([]float64, dm.NOwned())
		dm.Apply(xo, yo)
		mu.Lock()
		for i, g := range rm.Owned {
			gotY[g] = yo[i]
		}
		mu.Unlock()
		return nil
	})
	for i := 0; i < n; i++ {
		if math.Abs(gotY[i]-wantY[i]) > 1e-9*(1+math.Abs(wantY[i])) {
			t.Fatalf("row %d: distributed %v vs serial %v", i, gotY[i], wantY[i])
		}
	}
}

func TestDistMatrixSetValuesRefill(t *testing.T) {
	// Refill with doubled values must double Apply results.
	m := mesh.NewUnitCube(2)
	const nranks = 2
	part, _ := partition.RCB(m, nranks)
	owner := func(g int) int { return mesh.VertexOwnerOnParts(m, part, g) }
	runWorld(t, nranks, func(r *mp.Rank) error {
		l, err := mesh.NewLocalFromParts(m, part, r.ID())
		if err != nil {
			return err
		}
		var coo COO
		for _, e := range l.Elems {
			vs := m.ElemVerts(e)
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					coo.Add(vs[a], vs[b], elemValue(e, a, b))
				}
			}
		}
		rm := NewRowMap(l.VertGlobal[:l.NumOwned])
		dm, err := NewDistMatrix(r, rm, &coo, owner, 300)
		if err != nil {
			return err
		}
		xo := make([]float64, dm.NOwned())
		for i := range xo {
			xo[i] = 1
		}
		y1 := make([]float64, dm.NOwned())
		dm.Apply(xo, y1)
		for i := range coo.Vals {
			coo.Vals[i] *= 2
		}
		dm.SetValues(&coo)
		y2 := make([]float64, dm.NOwned())
		dm.Apply(xo, y2)
		for i := range y1 {
			if math.Abs(y2[i]-2*y1[i]) > 1e-9*(1+math.Abs(y1[i])) {
				return fmt.Errorf("refill wrong: %v vs %v", y2[i], 2*y1[i])
			}
		}
		return nil
	})
}

func TestApplyDirichletIdentityRowsAndSymmetry(t *testing.T) {
	m := mesh.NewUnitCube(3)
	const nranks = 3
	part, _ := partition.RCB(m, nranks)
	owner := func(g int) int { return mesh.VertexOwnerOnParts(m, part, g) }
	isBC := m.OnBoundary
	g := func(v int) float64 { x, y, z := m.VertexCoord(v); return x + 2*y + 3*z }

	n := m.NumVerts()
	var mu sync.Mutex
	gathered := make([][]float64, n)
	for i := range gathered {
		gathered[i] = make([]float64, n)
	}
	rhsGlobal := make([]float64, n)

	runWorld(t, nranks, func(r *mp.Rank) error {
		l, err := mesh.NewLocalFromParts(m, part, r.ID())
		if err != nil {
			return err
		}
		var coo COO
		for _, e := range l.Elems {
			vs := m.ElemVerts(e)
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					// Symmetric contribution.
					v := elemValue(e, min(a, b), max(a, b))
					coo.Add(vs[a], vs[b], v)
				}
			}
		}
		rm := NewRowMap(l.VertGlobal[:l.NumOwned])
		dm, err := NewDistMatrix(r, rm, &coo, owner, 400)
		if err != nil {
			return err
		}
		rhs := make([]float64, dm.NOwned())
		dm.NewDirichlet(isBC).EliminateRHS(g, rhs)
		mu.Lock()
		defer mu.Unlock()
		A := dm.Local()
		for lr := 0; lr < dm.NOwned(); lr++ {
			gr := rm.Owned[lr]
			rhsGlobal[gr] = rhs[lr]
			for s := A.RowPtr[lr]; s < A.RowPtr[lr+1]; s++ {
				gathered[gr][dm.ColGlobal(A.Col[s])] += A.Val[s]
			}
		}
		return nil
	})

	for v := 0; v < n; v++ {
		if isBC(v) {
			for j := 0; j < n; j++ {
				want := 0.0
				if j == v {
					want = 1
				}
				if gathered[v][j] != want {
					t.Fatalf("BC row %d col %d = %v", v, j, gathered[v][j])
				}
			}
			if rhsGlobal[v] != g(v) {
				t.Fatalf("BC rhs %d = %v, want %v", v, rhsGlobal[v], g(v))
			}
		}
	}
	// Interior block must stay symmetric after column elimination.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if isBC(i) || isBC(j) {
				continue
			}
			if math.Abs(gathered[i][j]-gathered[j][i]) > 1e-9 {
				t.Fatalf("asymmetry at (%d,%d): %v vs %v", i, j, gathered[i][j], gathered[j][i])
			}
		}
	}
}

func TestDistMatrixAllSum(t *testing.T) {
	m := mesh.NewUnitCube(2)
	const nranks = 2
	part, _ := partition.RCB(m, nranks)
	owner := func(g int) int { return mesh.VertexOwnerOnParts(m, part, g) }
	runWorld(t, nranks, func(r *mp.Rank) error {
		l, _ := mesh.NewLocalFromParts(m, part, r.ID())
		var coo COO
		for _, e := range l.Elems {
			vs := m.ElemVerts(e)
			coo.Add(vs[0], vs[0], 1)
		}
		rm := NewRowMap(l.VertGlobal[:l.NumOwned])
		dm, err := NewDistMatrix(r, rm, &coo, owner, 500)
		if err != nil {
			return err
		}
		if got := dm.AllSum(float64(r.ID() + 1)); got != 3 {
			return fmt.Errorf("AllSum = %v", got)
		}
		return nil
	})
}

func TestRowMap(t *testing.T) {
	rm := NewRowMap([]int{5, 2, 9})
	if rm.N() != 3 || rm.Owned[0] != 2 {
		t.Fatalf("row map not sorted: %v", rm.Owned)
	}
	if l, ok := rm.LocalOf(9); !ok || l != 2 {
		t.Fatalf("LocalOf(9) = %d, %v", l, ok)
	}
	if _, ok := rm.LocalOf(7); ok {
		t.Fatal("LocalOf(7) should miss")
	}
}

// TestSetValuesRejectsWrongLengthUpFront: a COO with the wrong number of
// values must panic before the matrix is zeroed or any peer is sent to, so
// the matrix stays usable and no rank is left waiting on a half-done refill.
// So must a Refill begun with the wrong length; one fed past its length
// panics at that Add and one that falls short at Finish, in both cases
// before anything is sent, giving back the slots it took: SetValues then
// refills dm, and the rejected cursor another matrix of the rank; a cursor
// begun again gives up the refill it has in flight.
func TestSetValuesRejectsWrongLengthUpFront(t *testing.T) {
	m := mesh.NewUnitCube(2)
	const nranks = 2
	part, _ := partition.RCB(m, nranks)
	owner := func(g int) int { return mesh.VertexOwnerOnParts(m, part, g) }
	runWorld(t, nranks, func(r *mp.Rank) error {
		l, err := mesh.NewLocalFromParts(m, part, r.ID())
		if err != nil {
			return err
		}
		var coo COO
		for _, e := range l.Elems {
			vs := m.ElemVerts(e)
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					coo.Add(vs[a], vs[b], elemValue(e, a, b))
				}
			}
		}
		dm, err := NewDistMatrix(r, NewRowMap(l.VertGlobal[:l.NumOwned]), &coo, owner, 700)
		if err != nil {
			return err
		}
		before := append([]float64(nil), dm.Local().Val...)
		n := coo.Len()
		short := COO{Vals: coo.Vals[:n-1]}
		var rf Refill
		for _, tc := range []struct {
			name, want string
			refill     func()
		}{
			{"short SetValues", fmt.Sprintf("sparse: SetValues with %d values, structure has %d", n-1, n),
				func() { dm.SetValues(&short) }},
			{"long Refill", fmt.Sprintf("sparse: Refill with %d values, structure has %d", n+1, n),
				func() { rf.Begin(dm, n+1) }},
			{"Refill fed past its length", fmt.Sprintf("sparse: Refill fed %d values, structure has %d", n+1, n),
				func() { rf.Begin(dm, n); rf.Add(coo.Vals[:n-1]); rf.Add(coo.Vals[:2]) }},
			{"Refill finished short", fmt.Sprintf("sparse: Refill fed %d values, structure has %d", n-1, n),
				func() { rf.Begin(dm, n); rf.Add(coo.Vals[:n-1]); rf.Finish() }},
		} {
			_, _, msgs, _ := r.Clock().Counters()
			got := func() (msg interface{}) {
				defer func() { msg = recover() }()
				tc.refill()
				return nil
			}()
			if got != tc.want {
				return fmt.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
			}
			if _, _, m, _ := r.Clock().Counters(); m != msgs {
				return fmt.Errorf("%s: sent %d messages before it panicked", tc.name, m-msgs)
			}
			if tc.name == "short SetValues" || tc.name == "long Refill" {
				for i, v := range dm.Local().Val {
					if v != before[i] {
						return fmt.Errorf("%s: rejected refill still changed Val[%d]", tc.name, i)
					}
				}
			}
			// Nothing was sent, and the rejected refill gave its slots back:
			// a correct refill by another cursor still pairs up across ranks.
			dm.SetValues(&coo)
			for i, v := range dm.Local().Val {
				if v != before[i] {
					return fmt.Errorf("%s: refill after it: Val[%d] = %v, want %v", tc.name, i, v, before[i])
				}
			}
		}
		// The rejected cursor refills another matrix of the rank, over the
		// same links; begun again with a refill in flight, it gives that one
		// up and refills dm.
		other, err := NewDistMatrix(r, dm.rowMap, &coo, owner, 710)
		if err != nil {
			return err
		}
		rf.Begin(other, n)
		rf.Add(coo.Vals)
		rf.Finish()
		rf.Begin(dm, n)
		rf.Add(coo.Vals[:1])
		rf.Begin(dm, n)
		rf.Add(coo.Vals)
		rf.Finish()
		if !slices.Equal(other.Local().Val, before) || !slices.Equal(dm.Local().Val, before) {
			return fmt.Errorf("refills by the rejected cursor give other values")
		}
		return nil
	})
}

// TestRefillGivesBackSlotsOnConflict: rank 0 exports to ranks 1 and 2 in
// refills of A, to rank 2 alone in refills of B. A refill of A begun while
// one of B is in flight takes the link to rank 1, panics on the link to
// rank 2, and gives the first back: once B's refill is done, A refills
// over both.
func TestRefillGivesBackSlotsOnConflict(t *testing.T) {
	owner := func(g int) int { return g }
	runWorld(t, 3, func(r *mp.Rank) error {
		id := r.ID()
		rm := NewRowMap([]int{id})
		var ca, cb COO
		ca.Add(id, id, 1)
		cb.Add(id, id, 1)
		if id == 0 {
			ca.Add(1, 1, 10)
			ca.Add(2, 2, 100)
			cb.Add(2, 2, 100)
		}
		a, err := NewDistMatrix(r, rm, &ca, owner, 10)
		if err != nil {
			return err
		}
		b, err := NewDistMatrix(r, rm, &cb, owner, 20)
		if err != nil {
			return err
		}
		builtA, builtB := slices.Clone(a.Local().Val), slices.Clone(b.Local().Val)
		if id != 0 {
			b.SetValues(&cb)
			a.SetValues(&ca)
		} else {
			var ra, rb Refill
			rb.Begin(b, cb.Len())
			got := func() (msg any) {
				defer func() { msg = recover() }()
				ra.Begin(a, ca.Len())
				return nil
			}()
			want := "mp: rank 0 takes a second slot on its link to rank 2 before sending the first"
			if got != want {
				return fmt.Errorf("a refill of A while B's is in flight: panic %v, want %q", got, want)
			}
			rb.Add(cb.Vals)
			rb.Finish()
			a.SetValues(&ca)
		}
		if !slices.Equal(a.Local().Val, builtA) || !slices.Equal(b.Local().Val, builtB) {
			return fmt.Errorf("rank %d: refills give A %v, B %v; want %v, %v", id, a.Local().Val, b.Local().Val, builtA, builtB)
		}
		return nil
	})
}

// TestCallerTagsStayBelowRefills: a matrix or importer whose tags would
// reach the refills' tag, or the collectives' below 0, is refused before
// any message.
func TestCallerTagsStayBelowRefills(t *testing.T) {
	runWorld(t, 1, func(r *mp.Rank) error {
		rm := NewRowMap([]int{0})
		var coo COO
		coo.Add(0, 0, 1)
		owner := func(int) int { return 0 }
		_, errM := NewDistMatrix(r, rm, &coo, owner, refillTag-3)
		_, errI := NewImporter(r, rm, nil, owner, -1)
		for _, c := range []struct {
			err  error
			want string
		}{
			{errM, fmt.Sprintf("sparse: tags [%d, %d) leave [0, %d)", refillTag-3, refillTag+1, refillTag)},
			{errI, fmt.Sprintf("sparse: tags [-1, 1) leave [0, %d)", refillTag)},
		} {
			if c.err == nil || c.err.Error() != c.want {
				return fmt.Errorf("got error %v, want %q", c.err, c.want)
			}
		}
		if _, _, msgs, _ := r.Clock().Counters(); msgs != 0 {
			return fmt.Errorf("refused builds sent %d messages", msgs)
		}
		if _, err := NewDistMatrix(r, rm, &coo, owner, refillTag-4); err != nil {
			return err
		}
		return nil
	})
}

// TestFailedBuildReleasesItsClassMates: ranks 1 and 2 present one
// fingerprint (one owned row, one local contribution, one shipped pair), but
// the pair rank 0 ships rank 1 names a row rank 1 does not own. Whichever of
// the two reaches the world's table first, rank 1 must fail with the
// per-rank build's error and rank 2 must come away with its structure: a
// failed build resolves its entry, and a shape is never adopted unchecked.
func TestFailedBuildReleasesItsClassMates(t *testing.T) {
	owner := func(g int) int { return map[int]int{0: 0, 1: 1, 2: 2, 5: 1}[g] }
	var errs [3]error
	var sts [3]structure
	err := newWorld(t, 3).Run(func(r *mp.Rank) error {
		var coo COO
		coo.Add(r.ID(), r.ID(), 1)
		if r.ID() == 0 {
			coo.Add(5, 0, 1) // to rank 1, which owns row 1 only
			coo.Add(2, 0, 1)
		}
		sts[r.ID()], errs[r.ID()] = structureFor(r, NewRowMap([]int{r.ID()}), &coo, owner)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "sparse: received row 5 not owned by rank 1"; errs[1] == nil || errs[1].Error() != want {
		t.Errorf("rank 1: error %v, want %q", errs[1], want)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("ranks 0 and 2: errors %v, %v", errs[0], errs[2])
	}
	if st := sts[2]; !slices.Equal(st.ghostCols, []int{0}) || !slices.Equal(st.importPeers, []int{0}) ||
		!slices.Equal(st.plan, []int32{0}) || !slices.Equal(st.importSlots[0], []int{1}) {
		t.Errorf("rank 2 holds %+v over %+v", st, *st.shape)
	}
}

// TestBindAcceptsExactlyWhatABuildWouldGive holds the exact check behind the
// world's table with the fingerprint out of the way: rank 1 of three (rank r
// owns ids 2r and 2r+1) builds one structure, then every single edit of a
// row, a column, a shipped pair or a stream is offered to that shape's bind.
// It must accept exactly when a private build of the edited input gives the
// same shape, and then return the per-rank lists that build gives.
func TestBindAcceptsExactlyWhatABuildWouldGive(t *testing.T) {
	owner := func(g int) int { return g / 2 }
	rows := []int{2, 2, 2, 1, 1, 2, 3, 3, 3, 4, 4, 3}
	cols := []int{2, 0, 1, 2, 1, 3, 2, 3, 4, 3, 4, 5} // ghost 1 is met once, ghost 0 again below
	streams := []incoming{{0, []int{2, 2, 3, 0}}, {2, []int{3, 3, 3, 4, 2, 5}}}
	runWorld(t, 3, func(r *mp.Rank) error {
		if r.ID() != 1 {
			return nil
		}
		m := NewRowMap([]int{2, 3})
		construct := func(m *RowMap, rows, cols []int, ins []incoming) (structure, *COO, *classified, error) {
			coo := &COO{Rows: rows, Cols: cols, Vals: make([]float64, len(rows))}
			cl, err := classify(r, m, coo, owner)
			if err != nil {
				return structure{}, nil, nil, err
			}
			st, err := build(r, m, coo, cl, ins)
			return st, coo, cl, err
		}
		base, _, _, err := construct(m, rows, cols, streams)
		if err != nil {
			return err
		}
		accepted, rejected := 0, 0
		offerOver := func(m *RowMap, what string, rows, cols []int, ins []incoming) {
			want, coo, cl, err := construct(m, rows, cols, ins)
			if cl == nil {
				t.Fatalf("%s: %v", what, err)
			}
			fits := err == nil && reflect.DeepEqual(*want.shape, *base.shape)
			got, ok := base.shape.bind(m, coo, cl, ins)
			switch {
			case ok != fits:
				t.Errorf("%s: bind accepts = %v, a build gives the same shape = %v", what, ok, fits)
			case ok:
				accepted++
				if !slices.Equal(got.ghostCols, want.ghostCols) || !slices.Equal(got.exportPeers, want.exportPeers) ||
					!slices.Equal(got.importPeers, want.importPeers) {
					t.Errorf("%s: bound lists %v %v %v, built %v %v %v", what, got.ghostCols, got.exportPeers,
						got.importPeers, want.ghostCols, want.exportPeers, want.importPeers)
				}
			default:
				rejected++
			}
		}
		offer := func(what string, rows, cols []int, ins []incoming) { offerOver(m, what, rows, cols, ins) }
		offer("unedited", rows, cols, streams)
		offerOver(NewRowMap([]int{2, 3, 7, 8}), "two more owned rows", append([]int{8}, rows[1:]...), append([]int{8}, cols[1:]...), streams)
		for id := 0; id < 6; id++ {
			for i := range rows {
				r2, c2 := slices.Clone(rows), slices.Clone(cols)
				r2[i], c2[i] = id, id
				offer(fmt.Sprintf("row %d := %d", i, id), r2, cols, streams)
				offer(fmt.Sprintf("col %d := %d", i, id), rows, c2, streams)
			}
			for si, in := range streams {
				for j := range in.pairs {
					ins := slices.Clone(streams)
					ins[si].pairs = slices.Clone(in.pairs)
					ins[si].pairs[j] = id
					offer(fmt.Sprintf("stream %d pair entry %d := %d", si, j, id), rows, cols, ins)
				}
			}
		}
		for i := range rows {
			offer(fmt.Sprintf("contribution %d dropped", i), slices.Delete(slices.Clone(rows), i, i+1),
				slices.Delete(slices.Clone(cols), i, i+1), streams)
			if i > 0 {
				r2, c2 := slices.Clone(rows), slices.Clone(cols)
				r2[i], r2[i-1], c2[i], c2[i-1] = r2[i-1], r2[i], c2[i-1], c2[i]
				offer(fmt.Sprintf("contributions %d and %d swapped", i-1, i), r2, c2, streams)
			}
		}
		offer("another source", rows, cols, []incoming{{0, streams[0].pairs}, {1, streams[1].pairs}})
		offer("a stream one pair shorter", rows, cols, []incoming{streams[0], {2, streams[1].pairs[:4]}})
		offer("a stream one pair longer", rows, cols, []incoming{{0, append(slices.Clone(streams[0].pairs), 3, 0)}, streams[1]})
		offer("one stream only", rows, cols, streams[:1])
		offer("the streams' pairs exchanged", rows, cols, []incoming{{0, streams[1].pairs}, {2, streams[0].pairs}})
		if accepted < 3 || rejected < 100 {
			t.Errorf("%d edits accepted, %d rejected: the scan lost its subject", accepted, rejected)
		}
		return nil
	})
}

package sparse_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heterohpc/internal/fem"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
)

// runSlabs runs body on four ranks that cut an 8³ mesh into slabs along x,
// two elements thick, over the finite-element space of each. Ranks 1 and 2,
// the two inner slabs, are class-mates: they number their rows alike and
// assemble a constant operator bit for bit alike, boundary elimination
// included (one element thick, rank 1's rows would couple to the x = 0
// face through rank 0's elements and rank 2's would not).
func runSlabs(t *testing.T, body func(r *mp.Rank, s *fem.Space) error) {
	t.Helper()
	m := mesh.NewUnitCube(8)
	sparse.RunWorld(t, 4, func(r *mp.Rank) error {
		s, err := fem.NewSpaceBlock(r, m, 4, 1, 1, 1000)
		if err != nil {
			return err
		}
		return body(r, s)
	})
}

// TestFrozenMatrixRejectsWrites freezes a mass matrix that has had its
// boundary rows eliminated, on every rank, so ranks 1 and 2 share one value
// array. Every path that writes values must then panic with its name before
// it writes, charges or sends anything; the values — the class-mate's too,
// checked again once every rank has tried — stay what each rank assembled;
// and no refused refill holds a link: a writable matrix of the same ranks
// still refills over them.
func TestFrozenMatrixRejectsWrites(t *testing.T) {
	var held [4][]float64
	runSlabs(t, func(r *mp.Rank, s *fem.Space) error {
		mass := massOp(1, s)
		dm, err := s.NewMatrix(mass, 1100, nil)
		if err != nil {
			return err
		}
		writable, err := s.NewMatrix(mass, 1200, dm)
		if err != nil {
			return err
		}
		built := slices.Clone(dm.Local().Val)
		d := dm.NewDirichlet(s.IsBoundary)
		want := slices.Clone(dm.Local().Val)
		dm.Freeze()
		dm.Freeze() // a second call does nothing
		n := 64 * len(s.L.Elems)
		coo := sparse.COO{Vals: make([]float64, n)}
		var rf sparse.Refill
		for _, tc := range []struct {
			name, op string
			write    func()
		}{
			{"SetValues", "SetValues", func() { dm.SetValues(&coo) }},
			{"Refill.Begin", "Refill", func() { rf.Begin(dm, n) }},
			{"fem.Space.Refill", "Refill", func() { s.Refill(dm, mass) }},
			{"NewDirichlet", "Dirichlet elimination", func() { dm.NewDirichlet(s.IsBoundary) }},
			{"Recompute", "Dirichlet elimination", func() { d.Recompute(s.IsBoundary) }},
			{"CSR.ZeroVals", "ZeroVals", func() { dm.Local().ZeroVals() }},
		} {
			now := r.Wtime()
			_, _, msgs, _ := r.Clock().Counters()
			got := func() (msg any) {
				defer func() { msg = recover() }()
				tc.write()
				return nil
			}()
			if want := "sparse: " + tc.op + " on a frozen matrix"; got != want {
				return fmt.Errorf("%s: panic %v, want %q", tc.name, got, want)
			}
			if _, _, m, _ := r.Clock().Counters(); m != msgs || r.Wtime() != now {
				return fmt.Errorf("%s: the refused write sent or charged", tc.name)
			}
			if !sparse.SameBits(dm.Local().Val, want) {
				return fmt.Errorf("%s: the refused write changed the values", tc.name)
			}
		}
		s.Refill(writable, mass)
		r.Barrier()
		if !sparse.SameBits(dm.Local().Val, want) || !sparse.SameBits(writable.Local().Val, built) {
			return fmt.Errorf("values changed while the other ranks tried their writes")
		}
		held[r.ID()] = dm.Local().Val
		return nil
	})
	if &held[1][0] != &held[2][0] {
		t.Errorf("class-mates 1 and 2 hold two value arrays")
	}
}

// TestUnequalValuesStayPrivate freezes three mass matrices on the slabs.
// In the first, each rank moves one value by as many ulps as its id: ranks 1
// and 2 are no longer alike and must keep their own arrays. The other two
// are filed under one forced key, so every array meets every other in the
// lookup: in the second, rank 1 stores +0 and rank 2 −0 at one slot, equal
// as numbers but not as bits, and they must still keep their own; the
// third is left as assembled, and ranks 1 and 2 must share it though the
// second's arrays sit under the same key. Every rank ends up holding, bit
// for bit, the values it assembled.
func TestUnequalValuesStayPrivate(t *testing.T) {
	const collide = 1
	var held [4][3][]float64
	runSlabs(t, func(r *mp.Rank, s *fem.Space) error {
		var dms [3]*sparse.DistMatrix
		for i := range dms {
			var err error
			if dms[i], err = s.NewMatrix(massOp(1, s), 1100+100*i, nil); err != nil {
				return err
			}
		}
		id := r.ID()
		v := dms[0].Local().Val
		for range id {
			v[0] = math.Nextafter(v[0], math.Inf(1))
		}
		switch id {
		case 1:
			dms[1].Local().Val[0] = 0
		case 2:
			dms[1].Local().Val[0] = math.Copysign(0, -1)
		}
		for i, dm := range dms {
			assembled := slices.Clone(dm.Local().Val)
			if i == 0 {
				dm.Freeze()
			} else {
				dm.FreezeUnder(collide)
			}
			if !sparse.SameBits(dm.Local().Val, assembled) {
				return fmt.Errorf("matrix %d: adopted values it did not assemble", i)
			}
			held[id][i] = dm.Local().Val
		}
		return nil
	})
	for i, share := range []bool{false, false, true} {
		if got := &held[1][i][0] == &held[2][i][0]; got != share {
			t.Errorf("matrix %d: ranks 1 and 2 share one array: %v, want %v", i, got, share)
		}
	}
}

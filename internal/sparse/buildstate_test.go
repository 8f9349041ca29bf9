package sparse_test

import (
	"fmt"
	"slices"
	"testing"

	"heterohpc/internal/fem"
	"heterohpc/internal/mesh"
	"heterohpc/internal/mp"
	"heterohpc/internal/sparse"
)

// elementBlocks returns the space's element ids as the blocks its operators
// are built from (fem.Space.NewMatrix keeps its own).
func elementBlocks(s *fem.Space) *sparse.Blocks {
	blk := &sparse.Blocks{K: 8}
	for _, e := range s.L.Elems {
		vs := s.M.ElemVerts(e)
		blk.IDs = append(blk.IDs, vs[:]...)
	}
	return blk
}

// fill streams the element matrices of elem into dm.
func fill(s *fem.Space, dm *sparse.DistMatrix, elem fem.ElemMatrix) {
	var rf sparse.Refill
	var ke [8][8]float64
	rf.Begin(dm, 64*len(s.L.Elems))
	for _, e := range s.L.Elems {
		elem(e, &ke, s.R)
		for a := range ke {
			rf.Add(ke[a][:])
		}
	}
	rf.Finish()
}

// TestFreezeHandsDroppedValuesToNextBuild freezes a mass matrix on the 64
// ranks of a 4×4×4 block decomposition, then builds a second operator from
// the same blocks. A rank whose Freeze adopted a class-mate's array must
// build the second operator into the array it dropped, every value zero; a
// rank that filed its own must get a new one, for its class-mates read the
// filed array — which must still hold the mass values once every rank has
// filled its second operator.
func TestFreezeHandsDroppedValuesToNextBuild(t *testing.T) {
	const q, n = 4, 2
	m := mesh.NewUnitCube(q * n)
	var adopted [q * q * q]bool
	sparse.RunWorld(t, q*q*q, func(r *mp.Rank) error {
		s, err := fem.NewSpaceBlock(r, m, q, q, q, 1000)
		if err != nil {
			return err
		}
		blk := elementBlocks(s)
		mass, err := sparse.NewDistMatrixBlocks(r, s.RowMap, blk, s.Owner, 1100, nil)
		if err != nil {
			return err
		}
		fill(s, mass, massOp(1, s))
		own := mass.Local().Val
		assembled := slices.Clone(own)
		mass.Freeze()
		adopts := &mass.Local().Val[0] != &own[0]
		next, err := sparse.NewDistMatrixBlocks(r, s.RowMap, blk, s.Owner, 1200, mass)
		if err != nil {
			return err
		}
		got := next.Local().Val
		if reused := &got[0] == &own[0]; reused != adopts {
			return fmt.Errorf("Freeze adopted another array: %v; next build took the own one: %v", adopts, reused)
		}
		if i := slices.IndexFunc(got, func(v float64) bool { return v != 0 }); i >= 0 {
			return fmt.Errorf("the next build starts with Val[%d] = %v", i, got[i])
		}
		fill(s, next, stiffOp(1, s))
		r.Barrier()
		if !sparse.SameBits(mass.Local().Val, assembled) {
			return fmt.Errorf("the frozen values changed")
		}
		adopted[r.ID()] = adopts
		return nil
	})
	nAdopted := 0
	for _, a := range adopted {
		if a {
			nAdopted++
		}
	}
	if nAdopted != 64-27 {
		t.Errorf("%d ranks adopted a filed array, want 37: all but one per position class", nAdopted)
	}
}

// TestRebuildResendsPairStreams: a rank's second build from one assembly
// ships the very slices its first build did, where it would spell them
// alike. On the blocks of a space, every stream is re-sent. A triplet COO
// whose exported column is edited in place between two builds must ship a
// fresh stream to that column's peer, re-send the others, and build, on
// every rank, exactly what the per-matrix reference builds.
func TestRebuildResendsPairStreams(t *testing.T) {
	const q, n = 2, 2
	m := mesh.NewUnitCube(q * n)
	var resentBlocks [q * q * q]int
	sparse.RunWorld(t, q*q*q, func(r *mp.Rank) error {
		s, err := fem.NewSpaceBlock(r, m, q, q, q, 1000)
		if err != nil {
			return err
		}
		blk := elementBlocks(s)
		first, err := sparse.NewDistMatrixBlocks(r, s.RowMap, blk, s.Owner, 1100, nil)
		if err != nil {
			return err
		}
		sent := slices.Clone(blk.Sent())
		if _, err := sparse.NewDistMatrixBlocks(r, s.RowMap, blk, s.Owner, 1200, first); err != nil {
			return err
		}
		again := blk.Sent()
		if len(again) != len(sent) {
			return fmt.Errorf("%d streams, then %d", len(sent), len(again))
		}
		for i, p := range sent {
			if len(p) == 0 || &again[i][0] != &p[0] {
				return fmt.Errorf("stream %d was spelled out again", i)
			}
		}
		resentBlocks[r.ID()] = len(sent)
		return nil
	})
	if slices.Max(resentBlocks[:]) == 0 {
		t.Fatalf("no rank sent a stream")
	}

	var fresh, resent [q * q * q]int
	requireSameAsReference(t, q*q*q, blockWorld(q, n, 0).start, func(b *builder) error {
		coo := sparse.Expand(systemCOO(b))
		b.build(coo, b.s.Owner, 1200, nil)
		sent := slices.Clone(coo.Sent()) // nil under the reference
		owned := func(g int) bool { _, ok := b.s.RowMap.LocalOf(g); return ok }
		to := -1
		if e, err := firstTriplet(coo, func(t int) bool {
			return !owned(coo.Rows[t]) && coo.Cols[t] != coo.Rows[t]
		}); err == nil {
			coo.Cols[e] = coo.Rows[e]
			to = b.s.Owner(coo.Rows[e])
		}
		b.build(coo, b.s.Owner, 1300, nil)
		if sent == nil {
			return nil
		}
		again := coo.Sent()
		for i, p := range sent {
			isFresh := &again[i][0] != &p[0]
			if wantFresh := b.recs[1].st.ExportPeers[i] == to; isFresh != wantFresh {
				return fmt.Errorf("stream to %d fresh = %v, want %v",
					b.recs[1].st.ExportPeers[i], isFresh, wantFresh)
			}
			if isFresh {
				fresh[b.r.ID()]++
			} else {
				resent[b.r.ID()]++
			}
		}
		return nil
	})
	if slices.Max(fresh[:]) == 0 || slices.Max(resent[:]) == 0 {
		t.Fatalf("fresh streams %v, re-sent %v: want some of each", fresh, resent)
	}
}

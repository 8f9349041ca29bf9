package sparse

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"heterohpc/internal/stats"
)

func requirePanic(t *testing.T, what, wantText string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, wantText) {
			t.Errorf("%s: panic %q, want one about %q", what, msg, wantText)
		}
	}()
	f()
}

// TestCOOHoldsOneForm: a COO is triplets or blocks of one size; whichever
// comes first fixes the form until Reset reopens it.
func TestCOOHoldsOneForm(t *testing.T) {
	var c COO
	c.Add(0, 1, 2)
	requirePanic(t, "AddBlock after Add", "holding triplets", func() { c.AddBlock([]int{0}, []float64{1}) })
	c.Reset()
	c.AddBlock([]int{3, 4}, []float64{1, 2, 3, 4})
	requirePanic(t, "Add after AddBlock", "holding blocks", func() { c.Add(0, 0, 1) })
	requirePanic(t, "a block of another size", "another size", func() { c.AddBlock([]int{1}, []float64{1}) })
	requirePanic(t, "values that are not K²", "2 ids and 3 values", func() { c.AddBlock([]int{1, 2}, []float64{1, 2, 3}) })
	requirePanic(t, "an empty block", "0 ids", func() { c.AddBlock(nil, nil) })
	if c.Len() != 4 || len(c.Vals) != 4 || len(c.Rows) != 0 {
		t.Fatalf("after one 2x2 block and five refused calls: Len %d, %d values, %d rows", c.Len(), len(c.Vals), len(c.Rows))
	}
	c.Reset()
	c.Add(5, 5, 1) // the form is open again
	if c.Len() != 1 {
		t.Fatalf("Len %d after Reset and one Add", c.Len())
	}
}

// TestCOOLenResetGrow: Len counts contributions in both forms, Reset keeps
// every array's capacity, and a Grow — before or after the form is fixed —
// lets the sized loop that follows append without reallocating.
func TestCOOLenResetGrow(t *testing.T) {
	ids := []int{7, 8, 9}
	block := make([]float64, 9)
	var c COO
	c.Grow(9 * 10)
	vals := &c.Vals[:1][0]
	for b := 0; b < 10; b++ {
		c.AddBlock(ids, block)
		if c.Len() != 9*(b+1) {
			t.Fatalf("Len %d after %d blocks of 3", c.Len(), b+1)
		}
	}
	idp := &c.ids[0]
	if &c.Vals[0] != vals || cap(c.ids) != 30 || cap(c.Vals) != 90 {
		t.Fatalf("Grow(90) before ten 3x3 blocks left capacities %d ids, %d values (reallocated: %v)",
			cap(c.ids), cap(c.Vals), &c.Vals[0] != vals)
	}
	c.Reset()
	if c.Len() != 0 || len(c.Vals) != 0 || cap(c.ids) != 30 || cap(c.Vals) != 90 {
		t.Fatalf("Reset left Len %d, capacities %d ids, %d values", c.Len(), cap(c.ids), cap(c.Vals))
	}
	c.AddBlock(ids, block)
	if &c.ids[0] != idp || &c.Vals[0] != vals {
		t.Fatal("a block after Reset did not reuse the arrays")
	}
	c.Grow(9 * 20) // in block form: both arrays, to exactly 21 blocks
	if cap(c.ids) != 63 || cap(c.Vals) != 189 || c.Len() != 9 {
		t.Fatalf("Grow(180) on one 3x3 block: capacities %d ids, %d values, Len %d", cap(c.ids), cap(c.Vals), c.Len())
	}

	var tr COO
	tr.Grow(50)
	tr.Add(1, 2, 3)
	rows, cols := &tr.Rows[0], &tr.Cols[0]
	for k := 1; k < 50; k++ {
		tr.Add(k, k, 1)
	}
	if &tr.Rows[0] != rows || &tr.Cols[0] != cols || tr.Len() != 50 {
		t.Fatal("Grow(50) before fifty Adds did not size the index arrays")
	}
	tr.Grow(100)
	if cap(tr.Rows) != 150 || cap(tr.Cols) != 150 || cap(tr.Vals) != 150 {
		t.Fatalf("Grow(100) on 50 triplets: capacities %d, %d, %d", cap(tr.Rows), cap(tr.Cols), cap(tr.Vals))
	}
	tr.Reset()
	tr.AddBlock(ids, block) // a scratch COO may change form between uses
	if tr.Len() != 9 || cap(tr.Vals) != 150 {
		t.Fatalf("blocks into a Reset triplet COO: Len %d, value capacity %d", tr.Len(), cap(tr.Vals))
	}
}

// randomBlocks fills c with nblocks blocks of size k over [0, n), drawing
// ids with replacement so that a block can name a vertex twice.
func randomBlocks(rng *stats.RNG, c *COO, nblocks, k, n int) {
	ids, vals := make([]int, k), make([]float64, k*k)
	for b := 0; b < nblocks; b++ {
		for i := range ids {
			ids[i] = rng.Intn(n)
		}
		for i := range vals {
			vals[i] = rng.Range(-1, 1)
		}
		c.AddBlock(ids, vals)
	}
}

// TestCSRFromBlocksMatchesExpansion: NewCSRFromCOO gives, from blocks and
// from the triplets they stand for, the same matrix bit for bit — and that
// of the sort-based reference — the same errors, and rejects a block COO
// whose arrays disagree with the error a ragged triplet COO gets.
func TestCSRFromBlocksMatchesExpansion(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := stats.NewRNG(seed*104729 + uint64(k))
			n := 1 + rng.Intn(40)
			var c COO
			randomBlocks(rng, &c, rng.Intn(30), k, n)
			tr := expand(&c)
			if tr.Len() != c.Len() || !slices.Equal(tr.Vals, c.Vals) {
				t.Fatalf("k %d seed %d: expansion has %d triplets for %d contributions", k, seed, tr.Len(), c.Len())
			}
			got, err := NewCSRFromCOO(n, n, &c)
			if err != nil {
				t.Fatalf("k %d seed %d: %v", k, seed, err)
			}
			want, err := NewCSRFromCOO(n, n, tr)
			if err != nil {
				t.Fatalf("k %d seed %d: %v", k, seed, err)
			}
			requireSameCSR(t, got, want)
			requireSameCSR(t, got, refCSRFromCOO(n, n, tr))

			// Out of range as a row, as a column, as both: the expansion's
			// first offending triplet names the error.
			if c.Len() == 0 {
				continue
			}
			hi := slices.Max(c.ids)
			for _, dim := range [][2]int{{hi, n}, {n, hi}, {hi, hi}} {
				_, gotErr := NewCSRFromCOO(dim[0], dim[1], &c)
				_, wantErr := NewCSRFromCOO(dim[0], dim[1], tr)
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("k %d seed %d, %dx%d: error %v, from triplets %v", k, seed, dim[0], dim[1], gotErr, wantErr)
				}
			}
		}
	}

	var c COO
	c.AddBlock([]int{0, 1}, []float64{1, 2, 3, 4})
	c.AddBlock([]int{1, 0}, []float64{5, 6, 7, 8})
	for name, ragged := range map[string]*COO{
		"short vals": {k: 2, ids: c.ids, Vals: c.Vals[:7]},
		"long vals":  {k: 2, ids: c.ids, Vals: append(slices.Clone(c.Vals), 9)},
		"split ids":  {k: 2, ids: c.ids[:3], Vals: c.Vals[:6]},
	} {
		if _, err := NewCSRFromCOO(2, 2, ragged); err == nil || !strings.Contains(err.Error(), "COO has") {
			t.Errorf("%s: err = %v, want a length-mismatch error", name, err)
		}
	}
}

// TestSegmentPatternMatchesSortReference is the oracle test of the segment
// builder on its general input, which no COO alone produces: segments of
// width K whose row and column ids are independent, some of them exported
// (negative row: not in this pattern, slots untouched), followed by width-1
// pairs as peers ship them. On the awkward shapes of
// TestBuildPatternMatchesSortReference it must reproduce the pattern the
// sort-based reference builds from the contributions spelled out, send every
// contribution to the slot holding its own column inside its own row, and
// leave values summed in input order.
func TestSegmentPatternMatchesSortReference(t *testing.T) {
	shapes := []struct {
		name                string
		nrows, ncols, ntrip int
		colLo               int     // columns are drawn from [colLo, ncols)
		pairShare           float64 // of the contributions, how many arrive as pairs
		pairRowsFrom        int     // pairs land in rows [pairRowsFrom, nrows)
	}{
		{"heavy duplicates", 6, 7, 400, 0, 0.3, 0},
		{"mostly empty rows", 60, 60, 25, 0, 0.3, 0},
		{"one row", 1, 40, 120, 0, 0.5, 0},
		{"one column", 30, 1, 50, 0, 0.2, 0},
		{"zero contributions", 5, 5, 0, 0, 0, 0},
		{"zero rows", 0, 3, 0, 0, 0, 0},
		{"ghost-only columns", 10, 25, 150, 10, 0.3, 0},
		{"stencil-sized rows", 40, 90, 40 * 64, 0, 0.1, 0},
		{"rows fed only by pairs", 20, 20, 300, 0, 0.5, 10},
		{"no pairs", 12, 12, 200, 0, 0, 0},
	}
	const untouched = math.MinInt32
	for _, sh := range shapes {
		for _, k := range []int{1, 2, 8} {
			for seed := uint64(1); seed <= 20; seed++ {
				rng := stats.NewRNG(seed*7919 + uint64(sh.ntrip) + uint64(k))
				nPairs := int(sh.pairShare * float64(sh.ntrip))
				nGroups := (sh.ntrip - nPairs) / (k * k)
				// Segments may only land in rows below pairRowsFrom when
				// the shape reserves the rest for pairs.
				segRows := sh.nrows
				if sh.pairRowsFrom > 0 {
					segRows = sh.pairRowsFrom
				}
				in := rowSegments{k: k}
				for g := 0; g < nGroups; g++ {
					first := len(in.cols)
					for j := 0; j < k; j++ {
						row := int32(rng.Intn(segRows))
						if rng.Intn(5) == 0 {
							row = ^row // exported
						}
						in.rows = append(in.rows, row)
						col := int32(sh.colLo + rng.Intn(sh.ncols-sh.colLo))
						if j > 0 && rng.Intn(4) == 0 {
							col = in.cols[first] // a duplicate id inside the group
						}
						in.cols = append(in.cols, col)
					}
				}
				for j := 0; j < nPairs; j++ {
					in.pairRows = append(in.pairRows, int32(sh.pairRowsFrom+rng.Intn(sh.nrows-sh.pairRowsFrom)))
					in.pairCols = append(in.pairCols, int32(sh.colLo+rng.Intn(sh.ncols-sh.colLo)))
				}
				in.slots = make([]int32, len(in.rows)*k)
				for i := range in.slots {
					in.slots[i] = untouched
				}
				in.pairSlots = make([]int, nPairs)

				// The contributions spelled out, in the order a refill
				// accumulates them: local segments, then pairs. where[i] is
				// the contribution's place in the builder's outputs.
				var c COO
				var where []int
				for s, row := range in.rows {
					if row < 0 {
						continue
					}
					for j, col := range in.cols[s-s%k:][:k] {
						c.Add(int(row), int(col), rng.Range(-1, 1))
						where = append(where, s*k+j)
					}
				}
				for j := range in.pairRows {
					c.Add(int(in.pairRows[j]), int(in.pairCols[j]), rng.Range(-1, 1))
					where = append(where, ^j)
				}
				want := refCSRFromCOO(sh.nrows, sh.ncols, &c)

				at := func() string { return fmt.Sprintf("%s, k %d, seed %d", sh.name, k, seed) }
				rowPtr, col, err := buildPattern(sh.nrows, sh.ncols, &in)
				if err != nil {
					t.Fatalf("%s: %v", at(), err)
				}
				if !intsEqual(rowPtr, want.RowPtr) || !intsEqual(col, want.Col) {
					t.Fatalf("%s: pattern differs from the reference\n%v %v\n%v %v", at(), rowPtr, col, want.RowPtr, want.Col)
				}
				got := &CSR{NRows: sh.nrows, NCols: sh.ncols, RowPtr: rowPtr, Col: col, Val: make([]float64, len(col))}
				for i, w := range where {
					slot := 0
					if w >= 0 {
						slot = int(in.slots[w])
						in.slots[w] = untouched
					} else {
						slot = in.pairSlots[^w]
					}
					if r := c.Rows[i]; slot < rowPtr[r] || slot >= rowPtr[r+1] || col[slot] != c.Cols[i] {
						t.Fatalf("%s: contribution %d (%d,%d) sent to slot %d", at(), i, r, c.Cols[i], slot)
					}
					got.Val[slot] += c.Vals[i]
				}
				requireSameCSR(t, got, want)
				for i, s := range in.slots {
					if s != untouched {
						t.Fatalf("%s: slot %d of exported segment %d written (%d)", at(), i%k, i/k, s)
					}
				}
			}
		}
	}
}

// Package idindex maps a rank's sorted global ids (mesh vertices, matrix
// rows) to their positions, in memory that follows how many ids are held
// rather than where in the global id space they lie.
package idindex

import (
	"math"
	"math/bits"
	"slices"
)

// maxSpanPerID bounds how sparse an id set may be and still get the bitmap:
// the span from the least to the greatest id is at most this many ids per
// id held, so the bitmap costs at most 12·maxSpanPerID/64 = 48 B per id.
// A block of a structured mesh spans its depth times a global plane — at
// n=20 per rank and P=1000 about 96 span ids per owned vertex — and stays
// under it; sparser sets, such as a block's ghost shell or an unstructured
// part, are binary-searched instead.
const maxSpanPerID = 256

// Index is a rank/select index over strictly ascending ids: position i
// holds ids[i]. Over a narrow enough span it keeps a presence bitmap of the
// span, one bit per id, and per 64-id word the count of ids in the words
// before it (about 0.19 B per id of span), so Lookup reads one word and does
// one popcount. Otherwise it binary-searches the ids. It is immutable once
// built; copies share their arrays.
type Index struct {
	ids  []int
	lo   int
	bits []uint64 // nil: binary search ids
	base []int32  // base[w]: ids in bits[:w]
}

// New indexes ids, which must be strictly ascending. The index keeps ids
// (it does not copy them), so the caller must not change them afterwards.
func New(ids []int) Index {
	x := Index{ids: ids}
	n := len(ids)
	// The span is taken in uint: the ids are sorted, so the difference is
	// exact even where it would overflow int.
	if n == 0 || n > math.MaxInt32 || uint(ids[n-1])-uint(ids[0]) >= maxSpanPerID*uint(n) {
		return x
	}
	x.lo = ids[0]
	words := (uint(ids[n-1])-uint(x.lo))>>6 + 1
	x.bits = make([]uint64, words)
	x.base = make([]int32, words)
	for _, g := range ids {
		i := uint(g) - uint(x.lo)
		x.bits[i>>6] |= 1 << (i & 63)
	}
	var c int32
	for w, word := range x.bits {
		x.base[w] = c
		c += int32(bits.OnesCount64(word))
	}
	return x
}

// IDs returns the indexed ids (shared, not copied).
func (x *Index) IDs() []int { return x.ids }

// Lookup returns the position of id g, if indexed.
func (x *Index) Lookup(g int) (int, bool) {
	if x.bits == nil {
		if i, ok := slices.BinarySearch(x.ids, g); ok {
			return i, true
		}
		return 0, false
	}
	// One unsigned compare rejects ids on either side of the span: an id
	// below lo wraps to a word no bitmap is long enough for.
	i := uint(g) - uint(x.lo)
	w := i >> 6
	if w >= uint(len(x.bits)) {
		return 0, false
	}
	word := x.bits[w]
	bit := uint64(1) << (i & 63)
	if word&bit == 0 {
		return 0, false
	}
	return int(x.base[w]) + bits.OnesCount64(word&(bit-1)), true
}

// Bytes returns the host bytes the index holds beyond the ids themselves.
func (x *Index) Bytes() int { return 8*len(x.bits) + 4*len(x.base) }

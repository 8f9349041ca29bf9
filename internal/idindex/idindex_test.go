package idindex

import (
	"math"
	"slices"
	"testing"

	"heterohpc/internal/stats"
)

// TestIndexMatchesMap: for every id set, on either side of the switch from
// bitmap to binary search, Lookup answers each probe — below the span, at
// and around every id, across word boundaries, unowned ids inside the span,
// above it, and the ends of the int range — as a map of id to position does.
func TestIndexMatchesMap(t *testing.T) {
	rng := stats.NewRNG(20261016)
	strided := func(lo, step, n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = lo + i*step
		}
		return ids
	}
	// scattered draws n distinct ids from [lo, lo+span), both ends included.
	scattered := func(lo, span, n int) []int {
		ids := []int{lo, lo + span - 1}
		for len(ids) < n {
			if g := lo + rng.Intn(span); !slices.Contains(ids, g) {
				ids = append(ids, g)
			}
		}
		slices.Sort(ids)
		return ids
	}
	for _, tc := range []struct {
		name   string
		ids    []int
		bitmap bool
	}{
		{"nothing", nil, false},
		{"one id", []int{123_456_789_012}, true},
		{"one id zero", []int{0}, true},
		{"word boundary 63 64 65", []int{0, 63, 64, 65}, true},
		{"word boundary from 1", []int{1, 63, 64, 65, 127, 128}, true},
		{"one full word", strided(64, 1, 64), true},
		{"contiguous far out", strided(3<<40, 1, 500), true},
		{"strided planes", strided(900_000_000, 121, 40), true},
		{"negative ids", strided(-70, 3, 30), true},
		{"scattered", scattered(5_000_000, 4000, 300), true},
		{"span at the switch", scattered(1<<33, maxSpanPerID*20, 20), true},
		{"span one past the switch", scattered(1<<33, maxSpanPerID*20+1, 20), false},
		{"scattered wide", scattered(-1<<40, 1<<41, 200), false},
		{"the whole int range", []int{math.MinInt, -1, 0, math.MaxInt}, false},
		{"top of the int range", strided(math.MaxInt-9, 1, 10), true},
		{"top word boundary", []int{math.MaxInt - 65, math.MaxInt - 64, math.MaxInt - 63, math.MaxInt}, true},
		{"bottom of the int range", strided(math.MinInt, 1, 10), true},
	} {
		x := New(tc.ids)
		if (x.bits != nil) != tc.bitmap {
			t.Errorf("%s: bitmap = %v, want %v", tc.name, x.bits != nil, tc.bitmap)
		}
		if tc.bitmap && x.Bytes() > 12*(4*len(tc.ids)+1) {
			t.Errorf("%s: bitmap holds %d B for %d ids", tc.name, x.Bytes(), len(tc.ids))
		}
		want := make(map[int]int, len(tc.ids))
		for i, g := range tc.ids {
			want[g] = i
		}
		probes := []int{math.MinInt, math.MinInt + 1, -1, 0, 1, 62, 63, 64, 65, 128, math.MaxInt - 64, math.MaxInt - 1, math.MaxInt}
		for _, g := range tc.ids {
			probes = append(probes, g-65, g-64, g-63, g-1, g, g+1, g+63, g+64, g+65) // wraps at the ends of the int range: still a probe
		}
		if n := len(tc.ids); n > 0 {
			lo, hi := tc.ids[0], tc.ids[n-1]
			for i := 0; i < 200; i++ {
				probes = append(probes, lo-70+rng.Intn(140), hi-70+rng.Intn(140), lo+rng.Intn(int(min(uint(hi)-uint(lo), 1<<40)+1)))
			}
		}
		for _, g := range probes {
			i, ok := x.Lookup(g)
			wi, wok := want[g]
			if ok != wok || i != wi {
				t.Fatalf("%s: Lookup(%d) = %d, %v; want %d, %v", tc.name, g, i, ok, wi, wok)
			}
		}
	}
}

// TestIndexRandomSetsMatchMap: random sets of every density, from one id per
// word to a full span, answer every id of their span as a map does.
func TestIndexRandomSetsMatchMap(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 200; trial++ {
		span := 1 + rng.Intn(2000)
		lo := rng.Intn(1<<20) - 1<<19
		var ids []int
		keep := rng.Float64()
		for g := lo; g < lo+span; g++ {
			if rng.Float64() < keep {
				ids = append(ids, g)
			}
		}
		x := New(ids)
		want := make(map[int]int, len(ids))
		for i, g := range ids {
			want[g] = i
		}
		for g := lo - 130; g < lo+span+130; g++ {
			i, ok := x.Lookup(g)
			wi, wok := want[g]
			if ok != wok || i != wi {
				t.Fatalf("trial %d (%d ids over [%d, %d)): Lookup(%d) = %d, %v; want %d, %v",
					trial, len(ids), lo, lo+span, g, i, ok, wi, wok)
			}
		}
	}
}

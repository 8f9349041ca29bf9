package obs

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

type ival struct{ s, e float64 }

// maxOverlap is the reference the mailbox high-water fold is held to: the
// maximum number of simultaneously open closed intervals, by sorting all
// starts and ends and sweeping them. Ties between an interval closing and
// another opening at the same instant count both as open (a message arriving
// exactly when another is received was momentarily queued behind it).
func maxOverlap(ivals []ival) int {
	if len(ivals) == 0 {
		return 0
	}
	starts := make([]float64, len(ivals))
	ends := make([]float64, len(ivals))
	for i, iv := range ivals {
		starts[i] = iv.s
		ends[i] = iv.e
	}
	sort.Float64s(starts)
	sort.Float64s(ends)
	depth, maxDepth := 0, 0
	j := 0
	for i := 0; i < len(starts); i++ {
		for j < len(ends) && ends[j] < starts[i] {
			depth--
			j++
		}
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	return maxDepth
}

// TestMaxOverlap checks the reference itself, on intervals in any order.
func TestMaxOverlap(t *testing.T) {
	cases := []struct {
		ivals []ival
		want  int
	}{
		{nil, 0},
		{[]ival{{0, 1}}, 1},
		{[]ival{{0, 1}, {2, 3}}, 1},
		{[]ival{{0, 2}, {1, 3}, {1.5, 1.7}}, 3},
		// Touching endpoints count as overlapping.
		{[]ival{{0, 1}, {1, 2}}, 2},
		{[]ival{{0, 0}, {0, 0}, {0, 0}}, 3},
	}
	for i, c := range cases {
		if got := maxOverlap(c.ivals); got != c.want {
			t.Errorf("case %d: maxOverlap = %d, want %d", i, got, c.want)
		}
	}
}

// foldPrefixes feeds ivals to a fresh recorder one at a time and, after
// each, compares its high-water with maxOverlap of the prefix fed so far and
// checks the stairs' shape: ends strictly ascending, counts strictly
// descending and at least one, so no more stairs than the high-water. It
// returns the final high-water.
func foldPrefixes(t *testing.T, name string, ivals []ival) int {
	t.Helper()
	rec := NewRun().NewRecorder(0, nil)
	for i, iv := range ivals {
		rec.QueueInterval(iv.s, iv.e)
		want := maxOverlap(ivals[:i+1])
		if got := rec.queueHighWater(); got != want {
			t.Fatalf("%s: after %d intervals (last [%g, %g]) the fold reads %d, the sweep %d; stairs %v",
				name, i+1, iv.s, iv.e, got, want, rec.stairs)
		}
		st := rec.stairs
		if len(st) > want {
			t.Fatalf("%s: after %d intervals %d stairs for a high-water of %d: %v", name, i+1, len(st), want, st)
		}
		for k := range st {
			if st[k].n < 1 || k > 0 && (st[k].x <= st[k-1].x || st[k].n >= st[k-1].n) {
				t.Fatalf("%s: after %d intervals the stairs are out of shape at %d: %v", name, i+1, k, st)
			}
		}
	}
	return rec.queueHighWater()
}

// TestHighWaterMatchesSweep holds the fold to the sorting sweep on every
// prefix of hand-made streams in receive order, one per tie the sweep rules
// on.
func TestHighWaterMatchesSweep(t *testing.T) {
	cases := []struct {
		name  string
		ivals []ival
		want  int
	}{
		{"empty", nil, 0},
		{"one", []ival{{0, 1}}, 1},
		{"disjoint", []ival{{0, 1}, {2, 3}}, 1},
		{"nested", []ival{{1.5, 1.7}, {0, 2}, {1, 3}}, 3},
		// A message arriving at the instant another is received was queued
		// behind it.
		{"close and open at one instant", []ival{{0, 1}, {1, 2}}, 2},
		{"zero-length", []ival{{0, 0}, {0, 0}, {0, 0}}, 3},
		{"zero-length at an end", []ival{{0, 1}, {1, 1}, {1, 1}, {2, 2}}, 3},
		{"equal ends", []ival{{0, 5}, {1, 5}, {4, 5}, {5, 5}}, 4},
		{"equal starts", []ival{{2, 3}, {2, 4}, {2, 6}, {5, 7}}, 3},
		{"equal starts after a gap", []ival{{0, 1}, {3, 4}, {3, 4}, {3, 9}}, 3},
		{"long-resident under a burst", []ival{
			{1, 1}, {2, 2}, {2, 3}, {3, 3}, {3, 4}, {4, 4}, {0, 5}, {5, 6}}, 4},
		{"burst then a fresh peak", []ival{
			{0, 1}, {0, 1}, {0, 1}, {2, 3}, {2.5, 3}, {2.5, 3.5}, {3, 4}, {3, 4}}, 5},
		{"a dropped stair returns", []ival{{0, 2}, {1, 3}, {2.5, 4}, {0.5, 5}}, 3},
	}
	for _, c := range cases {
		if got := foldPrefixes(t, c.name, c.ivals); got != c.want {
			t.Errorf("%s: high-water %d, want %d", c.name, got, c.want)
		}
	}
}

// receiveOrder simulates one rank's receives: messages arrive at seeded
// virtual times on a coarse grid (so equal starts, equal ends and
// zero-length residencies are common), and the rank, whose clock also
// advances by compute, takes a random pending one each time, at the later
// of its clock and the message's arrival. Sometimes one message is left
// waiting under a whole burst.
func receiveOrder(rng *rand.Rand, n int) []ival {
	var pending []float64
	var out []ival
	clock := 0.0
	for len(out) < n {
		switch rng.IntN(4) {
		case 0:
			for b := rng.IntN(6); b >= 0; b-- {
				pending = append(pending, clock+float64(rng.IntN(7)-2)/2)
			}
		case 1:
			clock += float64(rng.IntN(3)) / 2
		default:
			if len(pending) == 0 {
				continue
			}
			// Favour the newest message, so the oldest tends to stay
			// resident.
			i := len(pending) - 1 - rng.IntN(len(pending))*rng.IntN(2)
			a := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			clock = max(clock, a)
			out = append(out, ival{a, clock})
		}
	}
	return out
}

// TestHighWaterMatchesSweepOnSeededStreams holds the fold to the sweep on
// every prefix of seeded receive-order streams.
func TestHighWaterMatchesSweepOnSeededStreams(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		foldPrefixes(t, fmt.Sprintf("seed %d", seed), receiveOrder(rng, 1+rng.IntN(120)))
	}
}

// TestQueueIntervalRejectsReceiveDisorder: an interval that ends before the
// previous one, or before it starts, cannot come from a rank's receives;
// QueueInterval panics rather than fold it into a wrong gauge.
func TestQueueIntervalRejectsReceiveDisorder(t *testing.T) {
	for _, c := range []struct {
		name  string
		ivals []ival
	}{
		{"end before the previous end", []ival{{0, 2}, {1, 3}, {1.5, 1.7}}},
		{"end before its start", []ival{{0, 1}, {3, 2}}},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "out of receive order") {
					t.Errorf("%s: QueueInterval did not panic on receive disorder (recovered %v)", c.name, r)
				}
			}()
			rec := NewRun().NewRecorder(0, nil)
			for _, iv := range c.ivals {
				rec.QueueInterval(iv.s, iv.e)
			}
		}()
	}
}

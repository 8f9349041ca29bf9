package nse

import (
	"math"
	"testing"

	"heterohpc/internal/stats"
)

// TestComponentMatchesExactVelocity: each Component closure returns its
// component of ExactVelocity bit for bit — on a seeded point cloud over the
// benchmark's box and time range and on the awkward arguments: signed
// zeros, large and huge |x| (overflowing Exp, argument-reduced Sin/Cos),
// infinities and NaN.
func TestComponentMatchesExactVelocity(t *testing.T) {
	rng := stats.NewRNG(20260919)
	negZero := math.Copysign(0, -1)
	pts := [][4]float64{
		{0, 0, 0, 0}, {negZero, negZero, negZero, negZero}, {0, negZero, 0, 0.1}, {negZero, 1, -1, 0},
		{1e3, -1e3, 1e3, 0.5}, {-1e6, 1e6, 1e-6, 1}, {1e300, 1, 1, 0}, {1, -1e300, 1, 0},
		{700, 700, 700, 0}, {1, 1, 1, 1e3}, {1, 1, 1, -1e3},
		{math.Inf(1), 0, 0, 0}, {0, math.Inf(-1), 0, 0}, {0, 0, math.NaN(), 0}, {0, 0, 0, math.Inf(1)},
	}
	for i := 0; i < 2000; i++ {
		pts = append(pts, [4]float64{rng.Range(-1, 1), rng.Range(-1, 1), rng.Range(-1, 1), rng.Range(0, 0.5)})
	}
	for i := 0; i < 200; i++ {
		pts = append(pts, [4]float64{rng.Range(-1e4, 1e4), rng.Range(-1e4, 1e4), rng.Range(-1e4, 1e4), rng.Range(-2, 2)})
	}
	comps := [3]func(x, y, z, t float64) float64{Component(0), Component(1), Component(2)}
	for _, p := range pts {
		u, v, w := ExactVelocity(p[0], p[1], p[2], p[3])
		for d, want := range [3]float64{u, v, w} {
			if got := comps[d](p[0], p[1], p[2], p[3]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Component(%d)%v = %v (%#x), ExactVelocity gives %v (%#x)",
					d, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	// Out-of-range d keeps selecting the last component, as before.
	if comps[2](0.3, 0.2, 0.1, 0.05) != Component(7)(0.3, 0.2, 0.1, 0.05) {
		t.Error("Component(7) is not the third component")
	}
}

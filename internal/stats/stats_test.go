package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestRangeBounds(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		x := r.Range(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Range(-3,5) = %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("Range(-3,5) mean = %v, want ~1", mean)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		ss += x * x
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("normal mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Errorf("normal variance = %v, want ~4", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		if x := r.LogNormal(0, 1); x <= 0 {
			t.Fatalf("LogNormal produced %v", x)
		}
	}
}

// LogNormal's parameters are those of the underlying normal: the median of
// the draws is exp(mu).
func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(17)
	xs := make([]float64, 20001)
	for i := range xs {
		xs[i] = r.LogNormal(1, 0.5)
	}
	if med := Quantile(xs, 0.5); math.Abs(med-math.E) > 0.05 {
		t.Fatalf("median = %v, want ~e", med)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(31)
	p := r.Perm(50)
	sorted := append([]int(nil), p...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("Perm missing %d", i)
		}
	}
}

func TestPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 {
		t.Errorf("max = %v", Max(xs))
	}
	if Min(xs) != -1 {
		t.Errorf("min = %v", Min(xs))
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-sample helpers should return 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v", q)
	}
	// Input must be left unmodified.
	if xs[0] != 4 {
		t.Error("Quantile mutated input")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty sample quantile = %v, want 0", q)
	}
	if q := Quantile([]float64{7}, 0.3); q != 7 {
		t.Errorf("single-sample quantile = %v, want 7", q)
	}
	xs := []float64{5, 1, 3}
	if q := Quantile(xs, -0.5); q != 1 {
		t.Errorf("q<0 = %v, want the minimum 1", q)
	}
	if q := Quantile(xs, 1.5); q != 5 {
		t.Errorf("q>1 = %v, want the maximum 5", q)
	}
	if q := Quantile([]float64{0, 10}, 0.1); math.Abs(q-1) > 1e-12 {
		t.Errorf("interpolated q0.1 of {0,10} = %v, want 1", q)
	}
	if q := Quantile([]float64{1, 2, 3, 4, 5}, 0.25); q != 2 {
		t.Errorf("q0.25 of 1..5 = %v, want 2", q)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 17)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

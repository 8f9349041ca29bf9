package sparse

// BLAS-1 kernels over the owned prefix of distributed vectors. Each charges
// its flop and byte counts so virtual time reflects the real work.

// Axpy computes y[i] += a·x[i] over the first n entries.
func Axpy(n int, a float64, x, y []float64, ch Charger) {
	for i := 0; i < n; i++ {
		y[i] += float64(a * x[i])
	}
	ch.ChargeCompute(2*float64(n), 24*float64(n))
}

// Scale computes x[i] *= a over the first n entries.
func Scale(n int, a float64, x []float64, ch Charger) {
	for i := 0; i < n; i++ {
		x[i] *= a
	}
	ch.ChargeCompute(float64(n), 16*float64(n))
}

// CopyN copies the first n entries of src into dst.
func CopyN(n int, dst, src []float64, ch Charger) {
	copy(dst[:n], src[:n])
	ch.ChargeCompute(0, 16*float64(n))
}

// DotLocal returns the dot product of the first n entries (no reduction).
func DotLocal(n int, x, y []float64, ch Charger) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(x[i] * y[i])
	}
	ch.ChargeCompute(2*float64(n), 16*float64(n))
	return sum
}

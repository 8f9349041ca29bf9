package krylov

import (
	"math"
	"testing"
	"testing/quick"

	"heterohpc/internal/sparse"
	"heterohpc/internal/stats"
)

// lap1d builds the n×n tridiagonal Laplacian (SPD).
func lap1d(n int) *sparse.CSR {
	var c sparse.COO
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	m, err := sparse.NewCSRFromCOO(n, n, &c)
	if err != nil {
		panic(err)
	}
	return m
}

// convdiff builds a nonsymmetric 1-D convection-diffusion matrix.
func convdiff(n int, pe float64) *sparse.CSR {
	var c sparse.COO
	for i := 0; i < n; i++ {
		c.Add(i, i, 2+pe/2)
		if i > 0 {
			c.Add(i, i-1, -1-pe)
		}
		if i < n-1 {
			c.Add(i, i+1, -1+pe/2)
		}
	}
	m, err := sparse.NewCSRFromCOO(n, n, &c)
	if err != nil {
		panic(err)
	}
	return m
}

// denseSolve solves A x = b by Gaussian elimination with partial pivoting
// (test oracle).
func denseSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x
}

func residual(a *sparse.CSR, x, b []float64) float64 {
	y := make([]float64, a.NRows)
	a.MulVec(x, y, sparse.NopCharger{})
	var num, den float64
	for i := range b {
		d := b[i] - y[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

func preconds(a *sparse.CSR) map[string]Preconditioner {
	return map[string]Preconditioner{
		"identity": Identity{},
		"jacobi":   NewJacobi(a, a.NRows, nil),
		"sgs":      NewSGS(a, a.NRows, nil),
		"ilu0":     NewILU0(a, a.NRows, nil),
	}
}

func TestCGSolvesLaplacian(t *testing.T) {
	const n = 60
	a := lap1d(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	for name, M := range preconds(a) {
		if err := M.Setup(); err != nil {
			t.Fatalf("%s setup: %v", name, err)
		}
		x := make([]float64, n)
		res, err := CG(SerialSystem{A: a}, M, b, x, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: CG did not converge (res %v after %d)", name, res.Residual, res.Iterations)
		}
		if r := residual(a, x, b); r > 1e-8 {
			t.Fatalf("%s: true residual %v", name, r)
		}
	}
}

func TestPreconditioningAcceleratesCG(t *testing.T) {
	const n = 200
	a := lap1d(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	iters := map[string]int{}
	for name, M := range preconds(a) {
		if err := M.Setup(); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		res, err := CG(SerialSystem{A: a}, M, b, x, Options{Tol: 1e-8, MaxIter: 2000})
		if err != nil || !res.Converged {
			t.Fatalf("%s: %v %+v", name, err, res)
		}
		iters[name] = res.Iterations
	}
	if iters["ilu0"] >= iters["identity"] {
		t.Fatalf("ILU0 (%d iters) not faster than identity (%d)", iters["ilu0"], iters["identity"])
	}
	if iters["sgs"] >= iters["identity"] {
		t.Fatalf("SGS (%d iters) not faster than identity (%d)", iters["sgs"], iters["identity"])
	}
}

func TestBiCGStabSolvesNonsymmetric(t *testing.T) {
	const n = 50
	a := convdiff(n, 0.8)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) / 3)
	}
	for name, M := range preconds(a) {
		if err := M.Setup(); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		res, err := BiCGStab(SerialSystem{A: a}, M, b, x, Options{Tol: 1e-10, MaxIter: 1000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: no convergence: %+v", name, res)
		}
		if r := residual(a, x, b); r > 1e-8 {
			t.Fatalf("%s: true residual %v", name, r)
		}
	}
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	const n = 50
	a := convdiff(n, 0.8)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	for name, M := range preconds(a) {
		if err := M.Setup(); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		res, err := GMRES(SerialSystem{A: a}, M, b, x, Options{Tol: 1e-10, MaxIter: 500, Restart: 20})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: no convergence: %+v", name, res)
		}
		if r := residual(a, x, b); r > 1e-8 {
			t.Fatalf("%s: true residual %v", name, r)
		}
	}
}

func TestSolversMatchDenseOracle(t *testing.T) {
	const n = 25
	a := convdiff(n, 0.5)
	dense := a.Dense()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.7)
	}
	want := denseSolve(dense, b)
	type solver func(System, Preconditioner, []float64, []float64, Options) (Result, error)
	for name, s := range map[string]solver{"bicgstab": BiCGStab, "gmres": GMRES} {
		x := make([]float64, n)
		M := NewILU0(a, n, nil)
		if err := M.Setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := s(SerialSystem{A: a}, M, b, x, Options{Tol: 1e-12, MaxIter: 500}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d] = %v, oracle %v", name, i, x[i], want[i])
			}
		}
	}
	// CG on the SPD problem.
	aspd := lap1d(n)
	wantSPD := denseSolve(aspd.Dense(), b)
	x := make([]float64, n)
	if _, err := CG(SerialSystem{A: aspd}, Identity{}, b, x, Options{Tol: 1e-13, MaxIter: 500}); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-wantSPD[i]) > 1e-6*(1+math.Abs(wantSPD[i])) {
			t.Fatalf("cg: x[%d] = %v, oracle %v", i, x[i], wantSPD[i])
		}
	}
}

func TestZeroRHS(t *testing.T) {
	a := lap1d(10)
	b := make([]float64, 10)
	x := make([]float64, 10)
	x[3] = 5 // nonzero guess must be reset
	res, err := CG(SerialSystem{A: a}, nil, b, x, Options{})
	if err != nil || !res.Converged {
		t.Fatalf("%v %+v", err, res)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x[%d] = %v", i, x[i])
		}
	}
}

func TestMaxIterRespected(t *testing.T) {
	a := lap1d(400)
	b := make([]float64, 400)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 400)
	res, err := CG(SerialSystem{A: a}, nil, b, x, Options{Tol: 1e-14, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 5 {
		t.Fatalf("expected unconverged after 5 iters, got %+v", res)
	}
}

func TestVectorLengthValidation(t *testing.T) {
	a := lap1d(5)
	short := make([]float64, 2)
	if _, err := CG(SerialSystem{A: a}, nil, short, short, Options{}); err == nil {
		t.Error("CG accepted short vectors")
	}
	if _, err := BiCGStab(SerialSystem{A: a}, nil, short, short, Options{}); err == nil {
		t.Error("BiCGStab accepted short vectors")
	}
	if _, err := GMRES(SerialSystem{A: a}, nil, short, short, Options{}); err == nil {
		t.Error("GMRES accepted short vectors")
	}
}

func TestJacobiExactOnDiagonal(t *testing.T) {
	var c sparse.COO
	c.Add(0, 0, 2)
	c.Add(1, 1, 4)
	a, _ := sparse.NewCSRFromCOO(2, 2, &c)
	j := NewJacobi(a, 2, nil)
	if err := j.Setup(); err != nil {
		t.Fatal(err)
	}
	z := make([]float64, 2)
	j.Apply([]float64{2, 4}, z)
	if z[0] != 1 || z[1] != 1 {
		t.Fatalf("jacobi apply %v", z)
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	var c sparse.COO
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	a, _ := sparse.NewCSRFromCOO(2, 2, &c)
	if err := NewJacobi(a, 2, nil).Setup(); err == nil {
		t.Error("zero diagonal accepted")
	}
	if err := NewILU0(a, 2, nil).Setup(); err == nil {
		t.Error("ILU0 missing diagonal accepted")
	}
}

func TestILU0ExactOnTriangular(t *testing.T) {
	// For a lower-triangular matrix ILU(0) is an exact factorisation, so one
	// application solves the system exactly.
	var c sparse.COO
	c.Add(0, 0, 2)
	c.Add(1, 0, 1)
	c.Add(1, 1, 3)
	c.Add(2, 1, -1)
	c.Add(2, 2, 4)
	a, _ := sparse.NewCSRFromCOO(3, 3, &c)
	p := NewILU0(a, 3, nil)
	if err := p.Setup(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 0.5}
	b := make([]float64, 3)
	a.MulVec(x, b, sparse.NopCharger{})
	z := make([]float64, 3)
	p.Apply(b, z)
	for i := range x {
		if math.Abs(z[i]-x[i]) > 1e-12 {
			t.Fatalf("z = %v, want %v", z, x)
		}
	}
}

func TestILU0ExactOnTridiagonal(t *testing.T) {
	// Tridiagonal matrices have no fill-in, so ILU(0) = LU and the
	// preconditioner is a direct solver.
	a := lap1d(20)
	p := NewILU0(a, 20, nil)
	if err := p.Setup(); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	b := make([]float64, 20)
	a.MulVec(x, b, sparse.NopCharger{})
	z := make([]float64, 20)
	p.Apply(b, z)
	for i := range x {
		if math.Abs(z[i]-x[i]) > 1e-10 {
			t.Fatalf("ILU0 not exact on tridiagonal: z[%d]=%v want %v", i, z[i], x[i])
		}
	}
}

// Property: CG solves random SPD systems A = Lᵀ·L + I to the requested
// tolerance.
func TestCGRandomSPDProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const n = 12
		// Random lower triangular L with unit-ish diagonal.
		l := make([][]float64, n)
		for i := range l {
			l[i] = make([]float64, n)
			for j := 0; j <= i; j++ {
				l[i][j] = rng.Range(-0.5, 0.5)
			}
			l[i][i] += 1.5
		}
		var c sparse.COO
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var v float64
				for k := 0; k <= min(i, j); k++ {
					v += l[i][k] * l[j][k]
				}
				if i == j {
					v += 1
				}
				c.Add(i, j, v)
			}
		}
		a, err := sparse.NewCSRFromCOO(n, n, &c)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Range(-1, 1)
		}
		x := make([]float64, n)
		res, err := CG(SerialSystem{A: a}, nil, b, x, Options{Tol: 1e-10, MaxIter: 300})
		if err != nil || !res.Converged {
			return false
		}
		return residual(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCGILU0Laplacian(b *testing.B) {
	a := lap1d(2000)
	rhs := make([]float64, 2000)
	for i := range rhs {
		rhs[i] = 1
	}
	M := NewILU0(a, 2000, nil)
	if err := M.Setup(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, 2000)
		if _, err := CG(SerialSystem{A: a}, M, rhs, x, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

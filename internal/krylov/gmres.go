package krylov

import (
	"fmt"
	"math"

	"heterohpc/internal/sparse"
)

// GMRES solves A·x = b with restarted, right-preconditioned GMRES(m) using
// modified Gram–Schmidt Arnoldi and Givens rotations. Result.Iterations
// counts total inner iterations across restarts.
func GMRES(sys System, M Preconditioner, b, x []float64, opt Options) (Result, error) {
	res, err := gmres(sys, M, b, x, opt)
	opt.Obs.Solve("gmres", res.Iterations, res.Residual, res.Converged)
	return res, err
}

func gmres(sys System, M Preconditioner, b, x []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := sys.NOwned()
	if len(b) < n || len(x) < n {
		return Result{}, fmt.Errorf("krylov: vector lengths %d,%d < %d", len(b), len(x), n)
	}
	if M == nil {
		M = Identity{}
	}
	m := opt.Restart
	res := Result{}
	bnorm := norm2(sys, b)
	if bnorm == 0 {
		for i := 0; i < n; i++ {
			x[i] = 0
		}
		res.Converged = true
		return res, nil
	}

	ws := opt.workspace()
	// H[i][j], i row, j col (column Hessenberg); yAll is the triangular-
	// solve solution, sliced to the cycle's dimension below.
	V, H, cs, sn, g, yAll := ws.gmres(n, m)
	vv := ws.vectors(n, 2)
	w, z := vv[0], vv[1]

	for res.Iterations < opt.MaxIter {
		// r = b − A·x
		sys.Apply(x, V[0])
		for i := 0; i < n; i++ {
			V[0][i] = b[i] - V[0][i]
		}
		sys.ChargeCompute(float64(n), 24*float64(n))
		beta := norm2(sys, V[0])
		rel := beta / bnorm
		res.Residual = rel
		if rel < opt.Tol {
			res.Converged = true
			return res, nil
		}
		if beta == 0 || math.IsNaN(beta) {
			return res, fmt.Errorf("%w: residual norm %v", ErrBreakdown, beta)
		}
		sparse.Scale(n, 1/beta, V[0], sys)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && res.Iterations < opt.MaxIter; k++ {
			// w = A·M⁻¹·v_k
			M.Apply(V[k], z)
			sys.Apply(z, w)
			// Modified Gram–Schmidt.
			for i := 0; i <= k; i++ {
				h := dot(sys, w, V[i])
				H[i][k] = h
				sparse.Axpy(n, -h, V[i], w, sys)
			}
			hk1 := norm2(sys, w)
			H[k+1][k] = hk1
			if hk1 > 0 {
				sparse.CopyN(n, V[k+1], w, sys)
				sparse.Scale(n, 1/hk1, V[k+1], sys)
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := float64(cs[i]*H[i][k]) + float64(sn[i]*H[i+1][k])
				H[i+1][k] = float64(-sn[i]*H[i][k]) + float64(cs[i]*H[i+1][k])
				H[i][k] = t
			}
			// New rotation to annihilate H[k+1][k].
			denom := math.Hypot(H[k][k], H[k+1][k])
			if denom == 0 {
				return res, fmt.Errorf("%w: zero Hessenberg column at step %d", ErrBreakdown, k)
			}
			cs[k] = H[k][k] / denom
			sn[k] = H[k+1][k] / denom
			H[k][k] = denom
			H[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]

			res.Iterations++
			rel = math.Abs(g[k+1]) / bnorm
			res.Residual = rel
			if rel < opt.Tol || hk1 == 0 {
				k++
				break
			}
		}
		// Solve the k×k triangular system H·y = g.
		y := yAll[:k]
		for i := k - 1; i >= 0; i-- {
			sum := g[i]
			for j := i + 1; j < k; j++ {
				sum -= float64(H[i][j] * y[j])
			}
			y[i] = sum / H[i][i]
		}
		// x += M⁻¹·(V·y)
		for i := 0; i < n; i++ {
			w[i] = 0
		}
		for j := 0; j < k; j++ {
			sparse.Axpy(n, y[j], V[j], w, sys)
		}
		M.Apply(w, z)
		sparse.Axpy(n, 1, z, x, sys)
		if res.Residual < opt.Tol {
			// Verify with the true residual before declaring victory.
			sys.Apply(x, w)
			for i := 0; i < n; i++ {
				w[i] = b[i] - w[i]
			}
			sys.ChargeCompute(float64(n), 24*float64(n))
			res.Residual = norm2(sys, w) / bnorm
			if res.Residual < 10*opt.Tol {
				res.Converged = true
				return res, nil
			}
		}
	}
	return res, nil
}

package fem

import (
	"math"
	"slices"
	"testing"
)

// The integration loops Mass, Stiffness and Gradient ran on every call
// before they memoised their matrix, kept as their oracles.

func refMass(el *Element, c float64, out *[8][8]float64, ch Charger) {
	*out = [8][8]float64{}
	for q := range el.qp {
		w := el.qp[q].W * el.jac * c
		n := &el.n[q]
		for a := 0; a < 8; a++ {
			wa := w * n[a]
			for b := 0; b < 8; b++ {
				out[a][b] += wa * n[b]
			}
		}
	}
	ch.ChargeCompute(float64(len(el.qp))*(8*8*2+8), 8*8*8)
}

func refStiffness(el *Element, c float64, out *[8][8]float64, ch Charger) {
	*out = [8][8]float64{}
	for q := range el.qp {
		w := el.qp[q].W * el.jac * c
		dp := &el.dphys[q]
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				out[a][b] += w * (dp[a][0]*dp[b][0] + dp[a][1]*dp[b][1] + dp[a][2]*dp[b][2])
			}
		}
	}
	ch.ChargeCompute(float64(len(el.qp))*8*8*6, 8*8*8)
}

func refGradient(el *Element, d int, out *[8][8]float64, ch Charger) {
	*out = [8][8]float64{}
	for q := range el.qp {
		wq := el.qp[q].W * el.jac
		n := &el.n[q]
		dp := &el.dphys[q]
		for a := 0; a < 8; a++ {
			wa := wq * n[a]
			for b := 0; b < 8; b++ {
				out[a][b] += wa * dp[b][d]
			}
		}
	}
	ch.ChargeCompute(float64(len(el.qp))*8*8*2, 8*8*8)
}

// chargeLog records every ChargeCompute in order: the clock advances per
// call, so the sequence is part of an operator's contract.
type chargeLog [][2]float64

func (l *chargeLog) ChargeCompute(flops, bytes float64) { *l = append(*l, [2]float64{flops, bytes}) }

// TestElementMemoMatchesIntegration drives one Element through a script that
// repeats, alternates and interleaves operator arguments and checks every
// call against a fresh integration: equal bits in the matrix, one identical
// charge per call. The caller's matrix is garbage going in: out is
// overwritten, not accumulated into.
func TestElementMemoMatchesIntegration(t *testing.T) {
	el, err := NewElement(0.1, 0.25, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // another payload
	type call struct {
		op string // mass, stiff, or grad
		c  float64
		d  int
	}
	script := []call{
		{op: "mass", c: 28.18}, {op: "mass", c: 28.18}, {op: "mass", c: 1}, {op: "mass", c: 28.18},
		{op: "stiff", c: 0.83}, {op: "mass", c: 0.83}, {op: "stiff", c: 0.83}, {op: "stiff", c: 28.18},
		{op: "grad", d: 0}, {op: "grad", d: 1}, {op: "grad", d: 0}, {op: "mass", c: 0.83}, {op: "grad", d: 2},
		{op: "grad", d: 2}, {op: "stiff", c: 28.18}, {op: "grad", d: 1},
		{op: "mass", c: 0}, {op: "mass", c: negZero}, {op: "mass", c: 0}, {op: "mass", c: negZero},
		{op: "stiff", c: negZero}, {op: "stiff", c: 0}, {op: "stiff", c: 0},
		{op: "mass", c: math.NaN()}, {op: "mass", c: math.NaN()}, {op: "mass", c: nan2}, {op: "mass", c: 2},
		{op: "stiff", c: math.Inf(-1)}, {op: "stiff", c: math.Inf(-1)}, {op: "stiff", c: -3},
	}
	var gotCh, wantCh chargeLog
	for i, s := range script {
		var got, want [8][8]float64
		for a := range got {
			for b := range got[a] {
				got[a][b] = math.NaN()
			}
		}
		switch s.op {
		case "mass":
			el.Mass(s.c, &got, &gotCh)
			refMass(el, s.c, &want, &wantCh)
		case "stiff":
			el.Stiffness(s.c, &got, &gotCh)
			refStiffness(el, s.c, &want, &wantCh)
		case "grad":
			el.Gradient(s.d, &got, &gotCh)
			refGradient(el, s.d, &want, &wantCh)
		}
		for a := range want {
			for b := range want[a] {
				if math.Float64bits(got[a][b]) != math.Float64bits(want[a][b]) {
					t.Fatalf("call %d %+v: [%d][%d] = %v (%#x), integration gives %v (%#x)", i, s, a, b,
						got[a][b], math.Float64bits(got[a][b]), want[a][b], math.Float64bits(want[a][b]))
				}
			}
		}
	}
	if !slices.Equal(gotCh, wantCh) {
		t.Fatalf("charged %v, integration charges %v", gotCh, wantCh)
	}
	if len(gotCh) != len(script) {
		t.Fatalf("%d charges for %d calls", len(gotCh), len(script))
	}
}

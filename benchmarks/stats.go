package main

import (
	"sort"
	"time"

	"heterohpc/internal/stats"
)

// summary is what every reported timing carries: the median, the quartiles
// and the sample count (choosing-metrics §1), plus the highest percentile of
// the ladder that still has ten samples beyond it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// High is the HighP-th percentile; HighP is 0 when fewer than 40
	// samples leave no ladder percentile with ten samples beyond it.
	High  float64 `json:"high,omitempty"`
	HighP float64 `json:"high_p,omitempty"`
	N     int     `json:"n"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so the
// spreads this harness prints are the ones the acceptance driver computes.
// One value is its own three quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentileLadder, in tenths of a percent, is searched from the top for
// the highest percentile that still has ten samples beyond it.
var percentileLadder = []int{999, 990, 950, 900, 750}

// highPercentile picks the ladder percentile to report for n samples: the
// highest with at least ten samples beyond it, 0 when there is none.
func highPercentile(n int) float64 {
	for _, pm := range percentileLadder {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

func summarize(values []float64) summary {
	q1, q2, q3 := quartiles(values)
	s := summary{Median: q2, Q1: q1, Q3: q3, N: len(values)}
	if p := highPercentile(len(values)); p > 0 {
		s.HighP, s.High = p, stats.Quantile(values, p/100)
	}
	return s
}

// median is the second quartile: the middle value, or the mean of the two
// middle values.
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// Layer drivers repeat until both hold, so a fast call gets thousands of
// samples and a slow one still gets thirty.
const (
	minSamples    = 30
	minSampleTime = 300 * time.Millisecond
)

// sample times rounds of k calls of op until minSamples rounds and
// minSampleTime have accumulated, and returns the seconds per call of each
// round.
func sample(k int, op func()) []float64 {
	var out []float64
	var total time.Duration
	for len(out) < minSamples || total < minSampleTime {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			op()
		}
		d := time.Since(t0)
		total += d
		out = append(out, d.Seconds()/float64(k))
	}
	return out
}

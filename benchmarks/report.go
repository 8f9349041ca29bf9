package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"heterohpc/internal/stats"
)

func boundText(m metricDef) string {
	return fmt.Sprintf("%g%%", m.Bound*100)
}

// printReport prints every end-to-end metric of every workload by name,
// with unit, median, quartiles and n, then the per-layer numbers.
func printReport(w io.Writer, res *results) {
	fmt.Fprintf(w, "heterohpc benchmark  commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d",
		res.Commit, res.GoVersion, res.NProc, res.GOMAXPROCS, res.Seed)
	if res.Smoke {
		fmt.Fprint(w, "  (smoke sizes)")
	}
	fmt.Fprintln(w)
	for _, wl := range res.Workloads {
		def, _ := findWorkload(wl.Name)
		fmt.Fprintf(w, "\n== %s — %s\n", wl.Name, def.why)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tclock\tunit\tmedian\tq1\tq3\tn\tbound\t")
		for i, m := range endToEndMetrics() {
			clock := "host"
			if i >= len(hostMetrics) {
				clock = "virtual"
			}
			s := summarize(wl.Metrics[m.Name])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t\n", m.Name, clock, m.Unit, s.Median, s.Q1, s.Q3, s.N, boundText(m))
		}
		tw.Flush()
		fmt.Fprintf(w, "ops_failed/ops_total %d/%d   virt_digest %s\n", wl.OpsFailed, wl.OpsTotal, wl.Digest)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}

	fmt.Fprintln(w, "\n== per layer, from each workload's traced and observed passes (0: the workload does not enter the layer)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, wl := range res.Workloads {
		fmt.Fprintf(tw, "%s\t", wl.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range perLayerMetrics {
		if _, driver := res.Layers[m.Name]; driver {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t", m.Name, m.Unit)
		for _, wl := range res.Workloads {
			fmt.Fprintf(tw, "%.6g\t", wl.Layer[m.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n== per layer, from the layer drivers (direct calls at the workloads' sizes)")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tmedian\thigh\t\tn\t")
	names := make([]string, 0, len(res.Layers))
	for name := range res.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{"sparse.spmv_big_mb": "MB", "sparse.llc_mb": "MB"}
	for _, m := range perLayerMetrics {
		units[m.Name] = m.Unit
	}
	for _, name := range names {
		s := res.Layers[name]
		high := "\t"
		if s.HighP > 0 {
			high = fmt.Sprintf("%.6g\tp%g", s.High, s.HighP)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t\n", name, units[name], s.Median, high, s.N)
	}
	tw.Flush()
}

// Verdicts of a comparison row (choosing-metrics §6 and §8).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparisonRow is one (workload, metric) pairing of two result sets.
type comparisonRow struct {
	Workload string
	Metric   metricDef
	Old, New summary
	// Ratio is new median / old median: the base is the old median.
	Ratio   float64
	Verdict string
}

// minPairs is the least number of runs per side behind a claimed gain
// (choosing-metrics §8).
const minPairs = 10

// verdict judges new against old for one metric. worsening is the signed
// share of the old median by which the new median is worse. The row is
// unresolved when the run-to-run interquartile spread is wider than the
// bound and the two sets of runs overlap: the bound cannot be checked then.
// It is worse when the median worsened by more than the bound. It is better
// only when both sides have at least ten runs, the new side wins at least
// nine tenths of the pairs taken in order (ties counting for neither) and
// the medians differ by more than the old runs' own interquartile distance;
// a gain seen in fewer runs reads the same, because a slow spell of the host
// produces one.
func verdict(m metricDef, old, cur []float64) string {
	so, sn := summarize(old), summarize(cur)
	if so.Median == 0 {
		return verdictSame
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worsening := sign * (sn.Median - so.Median) / so.Median
	spread := so.spread()
	if s := sn.spread(); s > spread {
		spread = s
	}
	overlap := stats.Min(cur) <= stats.Max(old) && stats.Min(old) <= stats.Max(cur)
	pairs, wins := len(old), 0
	if len(cur) < pairs {
		pairs = len(cur)
	}
	for i := 0; i < pairs; i++ {
		if sign*(old[i]-cur[i]) > 0 {
			wins++
		}
	}
	switch {
	case spread > m.Bound && overlap:
		return verdictUnresolved
	case worsening > m.Bound:
		return verdictWorse
	case pairs >= minPairs && 10*wins >= 9*pairs && sign*(so.Median-sn.Median) > so.Q3-so.Q1:
		return verdictBetter
	default:
		return verdictSame
	}
}

func compareResults(old, cur *results) []comparisonRow {
	var rows []comparisonRow
	for _, ow := range old.Workloads {
		for _, nw := range cur.Workloads {
			if nw.Name != ow.Name {
				continue
			}
			for _, m := range endToEndMetrics() {
				o, n := ow.Metrics[m.Name], nw.Metrics[m.Name]
				if len(o) == 0 || len(n) == 0 {
					continue
				}
				row := comparisonRow{Workload: ow.Name, Metric: m, Old: summarize(o), New: summarize(n), Verdict: verdict(m, o, n)}
				if row.Old.Median != 0 {
					row.Ratio = row.New.Median / row.Old.Median
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []comparisonRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] n\tnew median [q1, q3] n\tnew/old\tbound\tverdict\t")
	cell := func(s summary) string {
		return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.Median, s.Q1, s.Q3, s.N)
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f of %.6g\t%s\t%s\t\n", r.Workload, r.Metric.Name, r.Metric.Unit,
			cell(r.Old), cell(r.New), r.Ratio, r.Old.Median, boundText(r.Metric), r.Verdict)
	}
	tw.Flush()
}

// disagreements lists what -selfcheck rejects between two sets of runs of
// one binary: a bounded metric whose medians differ beyond its bound in
// either direction, and any virtual number, digest or count that is not
// exactly equal.
func disagreements(rows []comparisonRow, a, b *results) []string {
	var bad []string
	for _, r := range rows {
		d := r.Ratio - 1
		if d < 0 {
			d = -d
		}
		if d > r.Metric.Bound {
			bad = append(bad, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by %.2f%% (bound %s)",
				r.Workload, r.Metric.Name, r.Old.Median, r.New.Median, d*100, boundText(r.Metric)))
		}
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Digest != wb.Digest {
			bad = append(bad, fmt.Sprintf("%s virt_digest: %s and %s", wa.Name, wa.Digest, wb.Digest))
		}
		for _, m := range perLayerMetrics {
			if m.Unit == "count" && wa.Layer[m.Name] != wb.Layer[m.Name] {
				bad = append(bad, fmt.Sprintf("%s %s: counts %g and %g", wa.Name, m.Name, wa.Layer[m.Name], wb.Layer[m.Name]))
			}
		}
	}
	return bad
}

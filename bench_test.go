package heterohpc

// One testing.B benchmark per table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Benchmark parameters are
// reduced (smaller per-rank meshes, truncated series) so `go test -bench=.`
// completes on a laptop; the cmd/heterobench CLI runs the full-size
// regenerations recorded in EXPERIMENTS.md. Each benchmark reports the
// paper-relevant quantity as custom metrics alongside wall time.

import (
	"testing"

	"heterohpc/internal/bench"
	"heterohpc/internal/perf"
	"heterohpc/internal/provision"
	"heterohpc/internal/spot"
)

func benchOpts() bench.Options {
	return bench.Options{PerRankN: 4, Steps: 2, SkipSteps: 1, MaxRanks: 64, Seed: 2012}
}

// BenchmarkTableICapabilities regenerates Table I (platform capability
// matrix).
func BenchmarkTableICapabilities(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := bench.FormatCapabilities(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkProvisioningPlans regenerates the §VI porting plans (experiment
// E2) and reports the EC2 effort estimate.
func BenchmarkProvisioningPlans(b *testing.B) {
	b.ReportAllocs()
	reg := provision.DefaultRegistry()
	var hours float64
	for i := 0; i < b.N; i++ {
		for _, name := range provision.PaperPlatforms {
			st, err := provision.PlatformState(name)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := provision.Resolve(reg, st, provision.AppTargets)
			if err != nil {
				b.Fatal(err)
			}
			if name == "ec2" {
				hours = plan.TotalHours
			}
		}
	}
	b.ReportMetric(hours, "ec2-man-hours")
}

// BenchmarkFig4RDWeakScaling regenerates Figure 4: the RD weak-scaling
// series on all four platforms (reduced loading).
func BenchmarkFig4RDWeakScaling(b *testing.B) {
	b.ReportAllocs()
	var growth float64
	for i := 0; i < b.N; i++ {
		series, err := bench.RunWeakAll("rd", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		ec2 := series[3]
		last := ec2.Points[len(ec2.Points)-1]
		if last.Err != nil {
			b.Fatal(last.Err)
		}
		growth = last.Report.Iter.MaxTotal / ec2.Points[0].Report.Iter.MaxTotal
	}
	b.ReportMetric(growth, "ec2-growth-64ranks")
}

// BenchmarkFig5NSWeakScaling regenerates Figure 5: the Navier–Stokes
// weak-scaling series (reduced loading and series — NS is ~4 solves/step).
func BenchmarkFig5NSWeakScaling(b *testing.B) {
	b.ReportAllocs()
	o := benchOpts()
	o.MaxRanks = 27
	var growth float64
	for i := 0; i < b.N; i++ {
		series, err := bench.RunWeakAll("ns", o)
		if err != nil {
			b.Fatal(err)
		}
		ec2 := series[3]
		last := ec2.Points[len(ec2.Points)-1]
		if last.Err != nil {
			b.Fatal(last.Err)
		}
		growth = last.Report.Iter.MaxTotal / ec2.Points[0].Report.Iter.MaxTotal
	}
	b.ReportMetric(growth, "ec2-growth-27ranks")
}

// BenchmarkTableIIPlacement regenerates Table II: full on-demand single
// placement group vs. spot mix across four groups on EC2.
func BenchmarkTableIIPlacement(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunPlacement(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		if last.Err != nil {
			b.Fatal(last.Err)
		}
		ratio = last.FullCost / last.MixEstCost
	}
	// The paper observes the single placement group "does not introduce any
	// performance benefits despite costing four times as much".
	b.ReportMetric(ratio, "full/spot-cost-ratio")
}

// BenchmarkFig6RDCost regenerates Figure 6: RD per-iteration costs across
// platforms including the ec2 mix curve.
func BenchmarkFig6RDCost(b *testing.B) {
	b.ReportAllocs()
	var table string
	for i := 0; i < b.N; i++ {
		series, err := bench.RunWeakAll("rd", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		table = bench.FormatCost(series)
	}
	if len(table) == 0 {
		b.Fatal("empty cost table")
	}
}

// BenchmarkFig7NSCost regenerates Figure 7: NS per-iteration costs.
func BenchmarkFig7NSCost(b *testing.B) {
	b.ReportAllocs()
	o := benchOpts()
	o.MaxRanks = 27
	var table string
	for i := 0; i < b.N; i++ {
		series, err := bench.RunWeakAll("ns", o)
		if err != nil {
			b.Fatal(err)
		}
		table = bench.FormatCost(series)
	}
	if len(table) == 0 {
		b.Fatal("empty cost table")
	}
}

// BenchmarkAvailability regenerates the §VIII availability comparison
// (experiment E9).
func BenchmarkAvailability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.FormatAvailability(benchOpts(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpotAcquisition measures the spot-market fleet assembly of §VII-B.
func BenchmarkSpotAcquisition(b *testing.B) {
	b.ReportAllocs()
	var spotShare float64
	for i := 0; i < b.N; i++ {
		m := spot.NewMarket(uint64(i+1), 2.40)
		a, err := m.AcquireMix(63, 1.20, 4, 6)
		if err != nil {
			b.Fatal(err)
		}
		spotShare = float64(a.SpotCount()) / 63
	}
	b.ReportMetric(spotShare, "spot-share")
}

// BenchmarkRDIteration measures one full platform-modelled RD run (the unit
// of every figure) at quickstart size: the tracked rd-iteration case of
// internal/perf, whose allocation ceilings CI enforces.
func BenchmarkRDIteration(b *testing.B) {
	b.ReportAllocs()
	for _, c := range perf.Cases() {
		if c.Name == "rd-iteration" {
			c.Bench(b)
			return
		}
	}
	b.Fatal("rd-iteration case missing from the tracked set")
}

// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VII) from the models in this
// repository — the weak-scaling series of Figures 4 and 5, the placement
// group / spot-mix comparison of Table II, the per-iteration cost curves of
// Figures 6 and 7, the capability matrix of Table I, the porting plans of
// §VI, and the availability comparison of §VIII.
//
// Results are plain data; Format* functions render the paper-shaped text
// tables. Everything is deterministic given Options.Seed.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"heterohpc/internal/core"
	"heterohpc/internal/obs"
)

// WeakSeries is the paper's weak-scaling process series: cubic counts from
// 1 to 1000.
var WeakSeries = []int{1, 8, 27, 64, 125, 216, 343, 512, 729, 1000}

// Options configures the harness.
type Options struct {
	// PerRankN is the per-process mesh edge (elements). The paper uses 20;
	// the default 10 keeps full sweeps tractable on a laptop while
	// preserving shapes (see EXPERIMENTS.md).
	PerRankN int
	// Steps is the number of BDF2 steps per run.
	Steps int
	// SkipSteps discards initial iterations from averages (the paper
	// discards 5 of its longer runs; scaled here to the shorter series).
	SkipSteps int
	// MaxRanks truncates the series.
	MaxRanks int
	// Seed drives every stochastic model (queue waits, spot market).
	Seed uint64
	// Platforms lists the targets (defaults to the paper's four).
	Platforms []string
	// Obs, when non-nil, collects every run's journal events and metrics.
	// Nil (the default) keeps the hot paths allocation-free.
	Obs *obs.Run
}

func (o Options) withDefaults() Options {
	if o.PerRankN == 0 {
		o.PerRankN = 10
	}
	if o.Steps == 0 {
		o.Steps = 3
	}
	if o.Steps > 1 && o.SkipSteps == 0 {
		o.SkipSteps = 1
	}
	if o.MaxRanks == 0 {
		o.MaxRanks = 1000
	}
	if o.Seed == 0 {
		o.Seed = 2012
	}
	if len(o.Platforms) == 0 {
		o.Platforms = []string{"puma", "ellipse", "lagrange", "ec2"}
	}
	return o
}

// Point is one (platform, ranks) measurement of a weak-scaling series.
type Point struct {
	Ranks  int
	Report *core.Report
	// Err records why the point is missing (scheduling failure), truncating
	// the series exactly as the paper's platforms did.
	Err error
}

// Series is one platform's scaling curve.
type Series struct {
	App      string
	Platform string
	// GlobalN is the fixed global mesh edge of a strong-scaling series; 0
	// marks weak scaling, whose mesh grows with the ranks.
	GlobalN int
	Points  []Point
}

// weakJob is the weak-scaling job of app on ranks processes, with the
// working set per rank the platform admits it by.
func weakJob(app string, ranks int, o Options) (core.JobSpec, error) {
	a, err := core.Weak(app, ranks, o.PerRankN, o.Steps)
	if err != nil {
		return core.JobSpec{}, err
	}
	return core.JobSpec{Ranks: ranks, App: a, SkipSteps: o.SkipSteps,
		MemPerRankGB: core.MemPerRankGB(o.PerRankN, solvers[app].fields), Obs: o.Obs}, nil
}

// RunWeak executes the weak-scaling experiment (Figure 4 for app "rd",
// Figure 5 for "ns") on one platform.
func RunWeak(app, platformName string, o Options) (*Series, error) {
	return runSeries(app, platformName, 0, o)
}

// runSeries runs app on one target of platformName at each size of
// WeakSeries up to o.MaxRanks, in order: the weak-scaling job when globalN
// is 0, else the globalN³ problem, which claims no working set. A size no
// app can be built for (a mesh too coarse to split) ends the series, and is
// the error when it is the first. A job the platform refuses is the
// series' last Point: larger ones fail too, so the series stops there as
// the paper's runs did.
func runSeries(app, platformName string, globalN int, o Options) (*Series, error) {
	o = o.withDefaults()
	tg, err := core.NewTarget(platformName, o.Seed)
	if err != nil {
		return nil, err
	}
	s := &Series{App: app, Platform: platformName, GlobalN: globalN}
	for _, ranks := range WeakSeries {
		if ranks > o.MaxRanks {
			break
		}
		spec := core.JobSpec{Ranks: ranks, SkipSteps: o.SkipSteps, Obs: o.Obs}
		if globalN == 0 {
			spec, err = weakJob(app, ranks, o)
		} else {
			spec.App, err = core.Cube(app, ranks, globalN, o.Steps)
		}
		if err != nil {
			if len(s.Points) == 0 {
				return nil, err
			}
			break
		}
		rep, err := tg.Run(spec)
		s.Points = append(s.Points, Point{Ranks: ranks, Report: rep, Err: err})
		if err != nil {
			break
		}
	}
	return s, nil
}

// RunWeakAll executes the weak-scaling experiment on all configured
// platforms.
func RunWeakAll(app string, o Options) ([]*Series, error) {
	o = o.withDefaults()
	var out []*Series
	for _, p := range o.Platforms {
		s, err := RunWeak(app, p, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// FormatWeak renders Figure 4/5 as a text table: per platform and process
// count, the rank-averaged assembly/preconditioner/solve times and the
// total maximal iteration time.
func FormatWeak(series []*Series) string {
	var b strings.Builder
	if len(series) == 0 {
		return "(no data)\n"
	}
	app := strings.ToUpper(series[0].App)
	fmt.Fprintf(&b, "Weak scaling, %s application (per-iteration seconds)\n", app)
	fmt.Fprintf(&b, "%-10s %6s %10s %10s %10s %12s %7s\n",
		"platform", "#mpi", "assembly", "precond", "solve", "max total", "comm%")
	for _, s := range series {
		for _, pt := range s.Points {
			if pt.Err != nil {
				fmt.Fprintf(&b, "%-10s %6d  -- %s\n", s.Platform, pt.Ranks, pt.Err)
				continue
			}
			it := pt.Report.Iter
			fmt.Fprintf(&b, "%-10s %6d %10.3f %10.3f %10.3f %12.3f %6.1f%%\n",
				s.Platform, pt.Ranks, it.AvgAssembly, it.AvgPrecond, it.AvgSolve,
				it.MaxTotal, it.CommFraction*100)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatCost renders Figure 6/7: per-iteration dollar cost per platform and
// process count, including the cost-aware "ec2 mix" (spot) curve.
func FormatCost(series []*Series) string {
	var b strings.Builder
	if len(series) == 0 {
		return "(no data)\n"
	}
	app := strings.ToUpper(series[0].App)
	fmt.Fprintf(&b, "Per-iteration cost, %s application (USD)\n", app)

	// Collect the union of rank counts with data.
	rankSet := map[int]bool{}
	for _, s := range series {
		for _, pt := range s.Points {
			if pt.Err == nil {
				rankSet[pt.Ranks] = true
			}
		}
	}
	ranks := make([]int, 0, len(rankSet))
	for r := range rankSet {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	cols := make([]string, 0, len(series)+1)
	for _, s := range series {
		cols = append(cols, s.Platform)
		if s.Platform == "ec2" {
			cols = append(cols, "ec2 mix")
		}
	}
	fmt.Fprintf(&b, "%6s", "#mpi")
	for _, c := range cols {
		fmt.Fprintf(&b, " %12s", c)
	}
	fmt.Fprintln(&b)
	for _, r := range ranks {
		fmt.Fprintf(&b, "%6d", r)
		for _, s := range series {
			cost, spotCost := -1.0, -1.0
			for _, pt := range s.Points {
				if pt.Ranks == r && pt.Err == nil {
					cost = pt.Report.CostPerIter
					spotCost = pt.Report.SpotCostPerIter
				}
			}
			b.WriteString(cellUSD(cost))
			if s.Platform == "ec2" {
				b.WriteString(cellUSD(spotCost))
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// cellUSD formats one cost cell; non-positive means no data.
func cellUSD(v float64) string {
	if v <= 0 {
		return fmt.Sprintf(" %12s", "--")
	}
	return fmt.Sprintf(" %12.5f", v)
}

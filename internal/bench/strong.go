package bench

import (
	"fmt"
	"strings"
)

// RunStrong executes a strong-scaling experiment, the time-to-completion
// view of the paper's introduction beyond its weak-scaling evaluation: the
// globalN³ problem on 1, 8, 27, … ranks (up to Options.MaxRanks) of one
// platform, until the mesh cannot be split that finely.
func RunStrong(app, platformName string, globalN int, o Options) (*Series, error) {
	if globalN < 1 {
		return nil, fmt.Errorf("bench: a %d³ global mesh has no elements", globalN)
	}
	return runSeries(app, platformName, globalN, o)
}

// FormatStrong renders a strong-scaling table with speedup and parallel
// efficiency relative to the smallest run.
func FormatStrong(series []*Series) string {
	var b strings.Builder
	if len(series) == 0 {
		return "(no data)\n"
	}
	fmt.Fprintf(&b, "Strong scaling, %s application, fixed %d³ global mesh\n",
		strings.ToUpper(series[0].App), series[0].GlobalN)
	fmt.Fprintf(&b, "%-10s %6s %12s %10s %12s %10s\n",
		"platform", "#mpi", "iter[s]", "speedup", "efficiency", "$/iter")
	for _, s := range series {
		var base float64
		var baseRanks int
		for _, pt := range s.Points {
			if pt.Err != nil {
				fmt.Fprintf(&b, "%-10s %6d  -- %v\n", s.Platform, pt.Ranks, pt.Err)
				continue
			}
			t := pt.Report.Iter.MaxTotal
			if base == 0 {
				base, baseRanks = t, pt.Ranks
			}
			speedup := base / t
			eff := speedup * float64(baseRanks) / float64(pt.Ranks)
			fmt.Fprintf(&b, "%-10s %6d %12.4f %10.2f %11.1f%% %10.5f\n",
				s.Platform, pt.Ranks, t, speedup, eff*100, pt.Report.CostPerIter)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

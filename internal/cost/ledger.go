package cost

import (
	"fmt"
	"sort"
	"strings"
)

// LedgerEntry records one executed job for accounting.
type LedgerEntry struct {
	Platform    string
	App         string
	Ranks       int
	Nodes       int
	RunSeconds  float64
	WaitSeconds float64
	Dollars     float64
}

// Ledger accumulates job records and produces the "overall expense factor"
// view the paper's abstract promises: dollars, delivered core-hours, and
// the waiting overhead per platform.
type Ledger struct {
	entries []LedgerEntry
}

// Add records a job.
func (l *Ledger) Add(e LedgerEntry) {
	l.entries = append(l.entries, e)
}

// PlatformSummary aggregates one platform's usage.
type PlatformSummary struct {
	Platform string
	Jobs     int
	// CoreHours is the delivered compute (ranks × run time).
	CoreHours float64
	// Dollars is the total spend.
	Dollars float64
	// DollarsPerCoreHour is the effective achieved rate.
	DollarsPerCoreHour float64
	// WaitHours is the total queue wait.
	WaitHours float64
	// WaitOverhead is wait time relative to run time (the availability
	// penalty: 0 means instant starts; 2 means jobs waited twice as long as
	// they ran).
	WaitOverhead float64
}

// Summarize aggregates the ledger per platform, sorted by platform name.
func (l *Ledger) Summarize() []PlatformSummary {
	agg := map[string]*PlatformSummary{}
	runHours := map[string]float64{}
	for _, e := range l.entries {
		s, ok := agg[e.Platform]
		if !ok {
			s = &PlatformSummary{Platform: e.Platform}
			agg[e.Platform] = s
		}
		s.Jobs++
		s.CoreHours += float64(e.Ranks) * e.RunSeconds / 3600
		s.Dollars += e.Dollars
		s.WaitHours += e.WaitSeconds / 3600
		runHours[e.Platform] += e.RunSeconds / 3600
	}
	out := make([]PlatformSummary, 0, len(agg))
	for name, s := range agg {
		if s.CoreHours > 0 {
			s.DollarsPerCoreHour = s.Dollars / s.CoreHours
		}
		if rh := runHours[name]; rh > 0 {
			s.WaitOverhead = s.WaitHours / rh
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Platform < out[b].Platform })
	return out
}

// Report renders the summary as a text table.
func (l *Ledger) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %5s %12s %10s %12s %12s\n",
		"platform", "jobs", "core-hours", "spend[$]", "$/core-h", "wait/run")
	for _, s := range l.Summarize() {
		fmt.Fprintf(&b, "%-10s %5d %12.3f %10.4f %12.4f %11.1fx\n",
			s.Platform, s.Jobs, s.CoreHours, s.Dollars, s.DollarsPerCoreHour, s.WaitOverhead)
	}
	return b.String()
}

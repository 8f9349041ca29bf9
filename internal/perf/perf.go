// Package perf is the tracked host-performance harness: a fixed set of
// named benchmark cases over the simulator's hot paths, measured with
// testing.Benchmark and serialised to BENCH.json so regressions in host
// ns/op and allocs/op are caught in review (the virtual clock measures the
// modelled platforms; this package measures the simulator itself).
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Result records one case's measurements, one line of BENCH.json.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// VirtualSPerOp is the modelled platform's time per op, for the cases
	// that report a "virtual-s/op" metric. It must not move under a change
	// that only makes the simulator faster.
	VirtualSPerOp float64 `json:"virtual_s_per_op,omitempty"`
}

// Report is the BENCH.json schema.
type Report struct {
	// GoVersion and GOARCH qualify the numbers: ns/op is only comparable
	// within one toolchain/architecture pair.
	GoVersion string `json:"go_version"`
	GoArch    string `json:"go_arch"`
	// Date is the measurement time (RFC 3339).
	Date    string   `json:"date"`
	Results []Result `json:"results"`
	// Baseline carries reference numbers a reviewer compares Results
	// against (e.g. the measurements before a performance PR). Run never
	// fills it; it is preserved from the checked-in file by rebaselines
	// that want to keep history.
	Baseline []Result `json:"baseline,omitempty"`
}

// Run measures every registered case whose name contains filter (all when
// filter is empty), logging progress to log.
func Run(filter string, log io.Writer) Report {
	rep := Report{
		GoVersion: runtime.Version(),
		GoArch:    runtime.GOARCH,
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
	for _, c := range Cases() {
		if filter != "" && !strings.Contains(c.Name, filter) {
			continue
		}
		res := Measure(c)
		rep.Results = append(rep.Results, res)
		if log != nil {
			fmt.Fprintf(log, "%-24s %12.0f ns/op %12d B/op %8d allocs/op\n",
				res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}
	return rep
}

// Measure runs one case under testing.Benchmark with allocation reporting.
func Measure(c Case) Result {
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		c.Bench(b)
	})
	ns := math.NaN()
	if br.N > 0 {
		ns = float64(br.T.Nanoseconds()) / float64(br.N)
	}
	return Result{
		Name:        c.Name,
		Iterations:  br.N,
		NsPerOp:     ns,
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),

		VirtualSPerOp: br.Extra["virtual-s/op"],
	}
}

// FormatComparison renders each result next to its baseline entry (paired
// by name): the allocs/op and ns/op deltas when a baseline exists, and an
// explicit "(no baseline)" marker when it does not — silence must never
// read as "unchanged".
func FormatComparison(rep Report) string {
	base := map[string]Result{}
	for _, r := range rep.Baseline {
		base[r.Name] = r
	}
	var b strings.Builder
	for _, r := range rep.Results {
		bl, ok := base[r.Name]
		if !ok {
			fmt.Fprintf(&b, "%-24s %8d allocs/op   (no baseline)\n", r.Name, r.AllocsPerOp)
			continue
		}
		fmt.Fprintf(&b, "%-24s %8d allocs/op   baseline %8d (%+d), ns/op %+.1f%%\n",
			r.Name, r.AllocsPerOp, bl.AllocsPerOp, r.AllocsPerOp-bl.AllocsPerOp,
			pctDelta(r.NsPerOp, bl.NsPerOp))
	}
	return b.String()
}

// pctDelta is the percentage change from base to cur; 0 when base is not a
// usable reference.
func pctDelta(cur, base float64) float64 {
	if base <= 0 || math.IsNaN(base) || math.IsNaN(cur) {
		return 0
	}
	return (cur - base) / base * 100
}

// WriteJSON writes the report to path, indented for diff-friendly commits.
func WriteJSON(rep Report, path string) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ReadJSON loads a previously written BENCH.json.
func ReadJSON(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

// Profile wraps fn with optional CPU and heap profiling: cpuPath/memPath
// empty means no profile of that kind.
func Profile(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(f)
	}
	return nil
}

// Command benchmarks is the repository's benchmark: four named workloads,
// end-to-end metrics on both of heterohpc's clocks (host: what the
// simulator costs; virtual: what it computes), a correctness ledger, and a
// separate traced pass that yields per-layer numbers by timing calls into
// each module's public functions from outside.
//
//	go run ./benchmarks                      all workloads, report + out/results.json
//	go run ./benchmarks -smoke               the same at test size
//	go run ./benchmarks -compare a.json b.json
//	go run ./benchmarks -selfcheck           two full sets must agree within bounds
//	go run ./benchmarks --workload rd-weak --seed 7 --seconds 20 --trace 0
//
// The last form is the one-run protocol BENCHMARK.json names: one workload,
// one JSON object on the last line. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir receives results.json and trace.json; it is git-ignored.
const outDir = "benchmarks/out"

// minPasses is the least number of timed passes behind a median.
const minPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run this one workload and print one JSON result line (the BENCHMARK.json protocol)")
	seed := fs.Uint64("seed", 2012, "workload seed: feeds Options.Seed / FaultOptions.Seed and nothing else")
	seconds := fs.Int("seconds", 20, "timed passes repeat until their timed regions sum to this many seconds (at least 3 passes)")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced pass and the layer drivers and prints the per-layer metrics")
	smoke := fs.Bool("smoke", false, "test-size workloads: P <= 27, n = 4 (n = 6 for ns-steady, whose accuracy check needs the finer mesh)")
	compare := fs.Bool("compare", false, "compare two results.json files: -compare old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "run two full sets and fail if any bounded metric disagrees beyond its bound")
	child := fs.String("child", "", "internal: run one pass (pass) or the layer drivers (layers) and print JSON")
	specJSON := fs.String("spec", "", "internal: the child's pass, as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: float64(*seconds), smoke: *smoke}
	switch {
	case *child != "":
		if err := runChild(*child, *specJSON, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("usage: -compare old.json new.json"))
		}
		old, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		cur, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		printComparison(stdout, compareResults(old, cur))
		return 0
	case *selfcheck:
		first, err := runAll(cfg, stderr)
		if err != nil {
			return fail(err)
		}
		second, err := runAll(cfg, stderr)
		if err != nil {
			return fail(err)
		}
		rows := compareResults(first, second)
		printComparison(stdout, rows)
		for _, res := range []*results{first, second} {
			if err := res.failedOps(); err != nil {
				return fail(err)
			}
		}
		if bad := disagreements(rows, first, second); len(bad) > 0 {
			return fail(fmt.Errorf("selfcheck: two sets of the same binary disagree: %s", strings.Join(bad, "; ")))
		}
		fmt.Fprintln(stdout, "selfcheck: both sets agree within every bound")
		return 0
	case *workloadName != "":
		if _, ok := findWorkload(*workloadName); !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		line, err := runOne(*workloadName, cfg, *trace == 1)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return fail(err)
		}
		return 0
	default:
		res, err := runAll(cfg, stderr)
		if err != nil {
			return fail(err)
		}
		printReport(stdout, res)
		if err := writeJSON(filepath.Join(outDir, "results.json"), res); err != nil {
			return fail(err)
		}
		if err := res.failedOps(); err != nil {
			return fail(err)
		}
		return 0
	}
}

// failedOps is the error of a run in which any operation failed.
func (res *results) failedOps() error {
	for _, w := range res.Workloads {
		if w.OpsFailed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed: %s", w.Name, w.OpsFailed, w.OpsTotal, strings.Join(w.Failures, "; "))
		}
	}
	return nil
}

type runConfig struct {
	seed    uint64
	seconds float64
	smoke   bool
}

// workloadResult is one workload's part of results.json.
type workloadResult struct {
	Name string `json:"name"`
	// Metrics holds every end-to-end metric's value in each timed pass.
	Metrics   map[string][]float64 `json:"metrics"`
	OpsTotal  int                  `json:"ops_total"`
	OpsFailed int                  `json:"ops_failed"`
	Failures  []string             `json:"failures,omitempty"`
	Digest    string               `json:"virt_digest"`
	// Layer holds the traced pass's per-layer numbers (nil when the traced
	// pass was not run).
	Layer map[string]float64 `json:"layer,omitempty"`
	spans []span
}

// results is the schema of out/results.json, the input of -compare.
type results struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Smoke      bool             `json:"smoke"`
	Workloads  []workloadResult `json:"workloads"`
	// Layers are the layer drivers' summaries, shared by all workloads.
	Layers layerResults `json:"layers"`
}

// timedPasses runs the workload's untraced passes, each in its own child
// process and never two at once, until their timed regions sum to the
// configured seconds, and folds them into a workloadResult. The ledger
// counts every pass's operations plus the equal-seed checks across passes.
func timedPasses(name string, cfg runConfig) (*workloadResult, error) {
	w := &workloadResult{Name: name, Metrics: map[string][]float64{}}
	var timed float64
	var journalSHA string
	for n := 0; n < minPasses || timed < cfg.seconds; n++ {
		p, err := spawnPass(passSpec{Workload: name, Seed: cfg.seed, Smoke: cfg.smoke})
		if err != nil {
			return nil, err
		}
		timed += p.WallS
		for _, m := range endToEndMetrics() {
			w.Metrics[m.Name] = append(w.Metrics[m.Name], p.value(m.Name))
		}
		w.OpsTotal += p.Ops
		w.OpsFailed += p.Failed
		w.Failures = append(w.Failures, p.Failures...)
		if n == 0 {
			w.Digest, journalSHA = p.Digest, p.JournalSHA
			continue
		}
		w.check(p.Digest == w.Digest, "%s pass %d: virt_digest %s differs from pass 0's %s", name, n, p.Digest, w.Digest)
		if journalSHA != "" {
			w.check(p.JournalSHA == journalSHA, "%s pass %d: journal SHA differs from pass 0's", name, n)
		}
	}
	return w, nil
}

func (w *workloadResult) check(ok bool, format string, args ...any) {
	w.OpsTotal++
	if !ok {
		w.OpsFailed++
		w.Failures = append(w.Failures, fmt.Sprintf(format, args...))
	}
}

// layerPasses runs the workload twice more — once traced (spans and CPU
// profile), once observed (registry counts, cost of observing) — and merges
// both with the layer drivers' medians into the workload's per-layer
// numbers. base is the untraced pass the observed one is compared with.
func (w *workloadResult) layerPasses(cfg runConfig, base *passResult, layers layerResults) error {
	l := map[string]float64{}
	for _, spec := range []passSpec{
		{Workload: w.Name, Seed: cfg.seed, Smoke: cfg.smoke, Trace: true},
		{Workload: w.Name, Seed: cfg.seed, Smoke: cfg.smoke, Observe: true},
	} {
		p, err := spawnPass(spec)
		if err != nil {
			return err
		}
		w.OpsTotal += p.Ops
		w.OpsFailed += p.Failed
		w.Failures = append(w.Failures, p.Failures...)
		w.check(p.Digest == base.Digest, "%s: virt_digest %s of the pass with trace=%v observe=%v differs from the untraced %s",
			w.Name, p.Digest, spec.Trace, spec.Observe, base.Digest)
		for k, v := range p.Layer {
			l[k] = v
		}
		if spec.Trace {
			w.spans = p.Spans
			continue
		}
		l["virt_s"], l["virt_usd"] = p.VirtS, p.VirtUSD
		l["obs.on_wall_frac"] = p.WallS/base.WallS - 1
		l["obs.on_alloc_frac"] = p.AllocMB/base.AllocMB - 1
	}
	for name, s := range layers {
		l[name] = s.Median
	}
	if clean := l["bench.clean_host_s"]; clean > 0 {
		l["bench.host_overhead_x"] = (l["bench.restart_host_s"] + l["bench.migrate_host_s"]) / 2 / clean
	}
	w.Layer = l
	return nil
}

// resultLine is the one JSON object the BENCHMARK.json protocol asks for.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one run of the protocol. Untraced, it reports the median of
// each host end-to-end metric over the timed passes. Traced, it reports
// every per-layer metric from the traced pass, the observed pass and the
// layer drivers, with one untraced pass as the baseline.
func runOne(name string, cfg runConfig, traced bool) (*resultLine, error) {
	line := &resultLine{Metrics: map[string]metricValue{}}
	var w *workloadResult
	if !traced {
		var err error
		if w, err = timedPasses(name, cfg); err != nil {
			return nil, err
		}
		for _, m := range hostMetrics {
			line.Metrics[m.Name] = metricValue{median(w.Metrics[m.Name]), m.Unit}
		}
	} else {
		base, err := spawnPass(passSpec{Workload: name, Seed: cfg.seed, Smoke: cfg.smoke})
		if err != nil {
			return nil, err
		}
		layers, err := spawnLayers()
		if err != nil {
			return nil, err
		}
		w = &workloadResult{Name: name, OpsTotal: base.Ops, OpsFailed: base.Failed, Failures: base.Failures}
		if err := w.layerPasses(cfg, base, layers); err != nil {
			return nil, err
		}
		for _, m := range perLayerMetrics {
			line.Metrics[m.Name] = metricValue{w.Layer[m.Name], m.Unit}
		}
		if err := writeJSON(filepath.Join(outDir, "trace.json"), w.spans); err != nil {
			return nil, err
		}
	}
	line.Attempted, line.Failed, line.Correct = w.OpsTotal, w.OpsFailed, w.OpsFailed == 0
	return line, nil
}

// runAll is the full benchmark: every workload's timed passes, traced pass
// and observed pass, and the layer drivers once.
func runAll(cfg runConfig, progress io.Writer) (*results, error) {
	res := &results{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Smoke: cfg.smoke,
	}
	fmt.Fprintln(progress, "benchmarks: layer drivers")
	var err error
	if res.Layers, err = spawnLayers(); err != nil {
		return nil, err
	}
	var spans []span
	for _, wl := range workloads {
		fmt.Fprintf(progress, "benchmarks: %s\n", wl.name)
		w, err := timedPasses(wl.name, cfg)
		if err != nil {
			return nil, err
		}
		base := &passResult{WallS: median(w.Metrics["wall_s"]), AllocMB: median(w.Metrics["alloc_mb"])}
		base.Digest = w.Digest
		if err := w.layerPasses(cfg, base, res.Layers); err != nil {
			return nil, err
		}
		spans = append(spans, w.spans...)
		res.Workloads = append(res.Workloads, *w)
	}
	return res, writeJSON(filepath.Join(outDir, "trace.json"), spans)
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &results{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

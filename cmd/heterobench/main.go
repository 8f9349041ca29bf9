// Command heterobench regenerates the tables and figures of "Experiences
// with Target-Platform Heterogeneity in Clouds, Grids, and On-Premises
// Resources" from the models in this repository.
//
// Usage:
//
//	heterobench capabilities                 # Table I
//	heterobench provision                    # §VI porting plans
//	heterobench rd-weak   [flags]            # Figure 4 (+ raw series)
//	heterobench ns-weak   [flags]            # Figure 5
//	heterobench placement [flags]            # Table II
//	heterobench cost -app rd|ns [flags]      # Figures 6 and 7
//	heterobench availability [-nodes N]      # §VIII availability comparison
//	heterobench faults [-platform P] [flags] # supervised run under injected faults
//	heterobench journal-diff a.jsonl b.jsonl # triage: first diverging journal line (+ -replay)
//	heterobench all [flags]                  # everything above
//
// Common flags: -n (elements per rank per dimension; the paper uses 20,
// default 10 for tractable local runs), -steps, -max (largest process
// count), -platforms (comma list), -seed. Every job-running command also
// accepts -journal <path> and -metrics <path>, which write the run's
// deterministic event journal (JSONL) and metric registry (JSON); equal
// seeds give byte-identical files.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"heterohpc/internal/bench"
	"heterohpc/internal/core"
	"heterohpc/internal/mesh"
	"heterohpc/internal/obs"
	"heterohpc/internal/platform"
	"heterohpc/internal/trace"
	"heterohpc/internal/triage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI: parse, dispatch, write observability files. It
// exists apart from main so tests can drive commands end to end against
// in-memory writers.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 10, "elements per rank per dimension (paper: 20)")
	steps := fs.Int("steps", 3, "BDF2 steps per run")
	skip := fs.Int("skip", 1, "initial iterations to discard from averages")
	maxRanks := fs.Int("max", 1000, "largest process count of the series")
	platforms := fs.String("platforms", "puma,ellipse,lagrange,ec2", "comma-separated platforms")
	seed := fs.Int64("seed", 2012, "seed for queue-wait and spot-market models (must be >= 0)")
	app := fs.String("app", "rd", "application for the cost/strong commands (rd or ns)")
	nodes := fs.Int("nodes", 8, "node count for the availability command")
	globalN := fs.Int("global", 30, "global mesh edge for the strong command")
	ranks := fs.Int("ranks", 27, "rank count for the ablate command")
	what := fs.String("what", "precond", "ablation: precond, packing, interconnect or partition")
	csvPath := fs.String("csv", "", "also write the raw series as CSV to this file (rd-weak, ns-weak, placement)")
	platform := fs.String("platform", "ec2", "single platform for the faults command")
	crashes := fs.Int("crashes", 1, "node crashes injected by the faults command")
	preempts := fs.Int("preempts", 1, "spot preemptions injected by the faults command")
	degrades := fs.Int("degrades", 0, "straggler windows injected by the faults command")
	policy := fs.String("policy", bench.PolicyRestart,
		"recovery policy for the faults command: restart, shrink-continue, migrate or compare")
	rpn := fs.Int("rpn", 0, "ranks per node for the faults command (0 = pack by cores; shrink needs >= 2 nodes)")
	storm := fs.Int("storm", 0, "faults command: correlated storm — wave of N simultaneous-notice preemptions (>= 2; replaces -crashes/-preempts/-degrades)")
	cascades := fs.Int("cascades", 0, "faults command: storm cascades — preemptions re-hitting wave slots mid-recovery (needs -storm)")
	bursts := fs.Int("bursts", 0, "faults command: storm straggler bursts — correlated degradation windows (needs -storm)")
	odsupply := fs.Int("odsupply", 0, "faults command: cap the replacement market's on-demand pool (0 = unlimited, negative = none; makes exhaustion reachable)")
	retries := fs.Int("retries", 0, "faults command: autoscaler backoff retries after an exhausted acquisition (0 = default 4, negative = none)")
	regrow := fs.Bool("regrow", false, "faults command: let the migrate autoscaler re-provision width lost to earlier degradations")
	tracePath := fs.String("trace", "", "faults command: also write the recovered timeline with decision markers as a Chrome trace to this file")
	journalPath := fs.String("journal", "", "write the run's deterministic event journal (JSONL) to this file")
	metricsPath := fs.String("metrics", "", "write the run's metric registry (JSON) to this file")
	window := fs.Int("window", 3, "journal-diff: surrounding lines shown around the divergence")
	replay := fs.Bool("replay", false, "journal-diff: re-run the scenario from the nearest checkpoint before the divergence and dump state (takes the faults scenario flags)")
	sweep := fs.Bool("sweep", false, "journal-diff: first-divergence report across the platform × rank grid, -seed vs -seed2 (no journal files)")
	seed2 := fs.Int64("seed2", 0, "journal-diff -sweep: second seed (default: -seed + 1)")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if *seed < 0 {
		fmt.Fprintf(stderr, "heterobench: -seed %d is negative; the availability and spot-market models need a seed >= 0\n\n", *seed)
		usage(stderr)
		return 2
	}
	// badSize reports the first size flag out of its range. A negative size
	// has no meaning, and neither has 0 for -n, -steps and -max: a mesh, a
	// run and a series need at least one element, step and rank (the flag
	// help prints the defaults). 0 is a size for -skip and -window; -nodes
	// and -global are checked per command (checkArgs).
	badSize := func() bool {
		for _, f := range []struct {
			name string
			v    int
			min  int
		}{{"n", *n, 1}, {"steps", *steps, 1}, {"skip", *skip, 0}, {"max", *maxRanks, 1},
			{"nodes", *nodes, 0}, {"global", *globalN, 0}, {"window", *window, 0}} {
			switch {
			case f.v < 0:
				fmt.Fprintf(stderr, "heterobench: -%s %d is negative\n", f.name, f.v)
				return true
			case f.v < f.min:
				fmt.Fprintf(stderr, "heterobench: -%s %d is below %d\n", f.name, f.v, f.min)
				return true
			}
		}
		return false
	}
	if badSize() {
		return 2
	}
	fc := faultsConfig{
		App: *app, Platform: *platform, Policy: *policy,
		Ranks: *ranks, RanksPerNode: *rpn, Seed: *seed,
		Crashes: *crashes, Preemptions: *preempts, Degradations: *degrades,
		StormWave: *storm, StormCascades: *cascades, StormBursts: *bursts,
		OnDemandSupply: *odsupply, ProvisionRetries: *retries, Regrow: *regrow,
		TracePath: *tracePath,
	}
	opts := bench.Options{
		PerRankN:  *n,
		Steps:     *steps,
		SkipSteps: *skip,
		MaxRanks:  *maxRanks,
		Seed:      uint64(*seed),
		Platforms: strings.Split(*platforms, ","),
	}
	if err := checkArgs(cmd, fc, opts.Platforms, *what, *nodes, *globalN); err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return 2
	}
	var obsRun *obs.Run
	if *journalPath != "" || *metricsPath != "" {
		obsRun = obs.NewRun()
	}
	opts.Obs = obsRun

	var err error
	switch cmd {
	case "capabilities":
		fmt.Fprint(stdout, bench.FormatCapabilities())
	case "provision":
		err = runProvision(stdout)
	case "rd-weak":
		err = runWeak(stdout, stderr, "rd", opts, *csvPath)
	case "ns-weak":
		err = runWeak(stdout, stderr, "ns", opts, *csvPath)
	case "placement":
		err = runPlacement(stdout, stderr, opts, *csvPath)
	case "cost":
		err = runCost(stdout, *app, opts)
	case "availability":
		err = runAvailability(stdout, opts, *nodes)
	case "strong":
		err = runStrong(stdout, *app, *globalN, opts)
	case "bidding":
		var out string
		out, err = bench.FormatBidSweep(opts, *nodes, 50)
		fmt.Fprint(stdout, out)
	case "ablate":
		err = runAblate(stdout, *what, opts, *ranks)
	case "trace":
		err = runTrace(stdout, stderr, *app, opts, *ranks, *csvPath)
	case "faults":
		err = runFaults(stdout, stderr, fc, opts)
	case "journal-diff":
		// fs.Parse stopped at the first positional (the old journal path),
		// so trailing flags like `journal-diff a.jsonl b.jsonl -replay` are
		// still sitting in fs.Args(): consume the positionals and parse the
		// remainder through the same FlagSet.
		rest := fs.Args()
		var oldPath, newPath string
		if !*sweep {
			if len(rest) < 2 || strings.HasPrefix(rest[0], "-") || strings.HasPrefix(rest[1], "-") {
				fmt.Fprintln(stderr, "usage: heterobench journal-diff old.jsonl new.jsonl [-window N] [-replay <scenario flags>]")
				fmt.Fprintln(stderr, "       heterobench journal-diff -sweep [-app rd|ns] [-platforms list] [-max N] [-seed N] [-seed2 M]")
				return 2
			}
			oldPath, newPath = rest[0], rest[1]
			rest = rest[2:]
		}
		if err := fs.Parse(rest); err != nil || badSize() {
			return 2
		}
		if *sweep && oldPath != "" {
			fmt.Fprintln(stderr, "heterobench: journal-diff -sweep generates its own journals; drop the file arguments")
			return 2
		}
		// The re-parse may have updated any flag: rebuild the derived
		// option bundles from the final values.
		s2 := uint64(*seed2)
		if *seed2 < 0 {
			fmt.Fprintf(stderr, "heterobench: -seed2 %d is negative\n", *seed2)
			return 2
		}
		if s2 == 0 {
			s2 = uint64(*seed) + 1
		}
		return runJournalDiff(stdout, stderr, jdConfig{
			oldPath: oldPath, newPath: newPath,
			window: *window, replay: *replay, sweep: *sweep,
			app: *app, seed2: s2,
			opts: bench.Options{
				PerRankN: *n, Steps: *steps, SkipSteps: *skip,
				MaxRanks: *maxRanks, Seed: uint64(*seed),
				Platforms: strings.Split(*platforms, ","),
			},
			scenario: bench.ReplayOptions{
				App: *app, Platform: *platform, Ranks: *ranks, RanksPerNode: *rpn,
				PerRankN: *n, Steps: *steps, SkipSteps: *skip, Seed: uint64(*seed),
				Crashes: *crashes, Preemptions: *preempts, Degradations: *degrades,
				Policy: *policy,
			},
		})
	case "all":
		err = runAll(stdout, stderr, opts, *nodes)
	case "help", "-h", "--help":
		usage(stderr)
	default:
		fmt.Fprintf(stderr, "heterobench: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
	// Observability is written best-effort even when the command failed:
	// the journal is most valuable exactly then (journal-diff triage of a
	// failing run). The command's own error stays the exit status; a write
	// failure on top of it is only reported.
	if werr := writeObs(stderr, obsRun, *journalPath, *metricsPath); werr != nil {
		if err == nil {
			err = werr
		} else {
			fmt.Fprintf(stderr, "heterobench: writing observability: %v\n", werr)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return 1
	}
	return 0
}

// checkArgs rejects, before cmd starts any work, a flag value it cannot run
// with: an unknown platform, application, ablation or policy name, a rank,
// node or mesh-edge count below one where the command needs one, and a rank
// count that is not a cube where the command lays a weak-scaling mesh over
// the ranks.
func checkArgs(cmd string, fc faultsConfig, platforms []string, what string, nodes, globalN int) error {
	for _, name := range append([]string{fc.Platform}, platforms...) {
		if _, err := platform.Get(name); err != nil {
			return err
		}
	}
	switch cmd {
	case "cost", "strong", "trace":
		if fc.App != "rd" && fc.App != "ns" {
			return fmt.Errorf("unknown app %q (want rd or ns)", fc.App)
		}
	case "ablate":
		switch what {
		case "precond", "packing", "interconnect", "partition":
		default:
			return fmt.Errorf("unknown ablation %q (want precond, packing, interconnect or partition)", what)
		}
	case "faults":
		if err := validateFaults(fc); err != nil {
			return err
		}
	}
	_, notCube := mesh.CubeGrid(fc.Ranks)
	switch {
	case (cmd == "trace" || cmd == "ablate") && fc.Ranks < 1:
		return fmt.Errorf("-ranks %d: the %s command needs at least one rank", fc.Ranks, cmd)
	case (cmd == "trace" || cmd == "faults" || cmd == "ablate" && what != "partition") && notCube != nil:
		return fmt.Errorf("-ranks %d is not a cube: the %s command lays its mesh over p³ ranks", fc.Ranks, cmd)
	case cmd == "strong" && globalN < 1:
		return fmt.Errorf("-global %d: the strong-scaling mesh needs at least one element per edge", globalN)
	case cmd == "bidding" && nodes < 1:
		return fmt.Errorf("-nodes %d: the bid sweep needs at least one node", nodes)
	case (cmd == "availability" || cmd == "all") && nodes < 1:
		return fmt.Errorf("-nodes %d: the availability comparison needs at least one node", nodes)
	}
	return nil
}

// jdConfig is the journal-diff command's bundle after flag re-parsing.
type jdConfig struct {
	oldPath, newPath string
	window           int
	replay           bool
	sweep            bool
	app              string
	seed2            uint64
	opts             bench.Options       // sweep grid configuration
	scenario         bench.ReplayOptions // -replay scenario (the faults flags)
}

// runJournalDiff is the triage front-end. Exit contract: 0 when the
// journals are byte-identical (or the sweep completed), 1 when a
// divergence was found and reported, 2 on usage, I/O or parse errors.
func runJournalDiff(stdout, stderr io.Writer, c jdConfig) int {
	if c.sweep {
		return runJournalDiffSweep(stdout, stderr, c)
	}
	of, err := os.Open(c.oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return 2
	}
	defer of.Close()
	nf, err := os.Open(c.newPath)
	if err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return 2
	}
	defer nf.Close()
	d, lines, err := triage.Diff(c.oldPath, of, c.newPath, nf, c.window)
	if err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return 2
	}
	if d == nil {
		fmt.Fprintf(stdout, "journals identical (%d lines)\n", lines)
		return 0
	}
	fmt.Fprint(stdout, triage.FormatDivergence(d))
	if c.replay {
		// Anchor the replay off the side that still carries a parseable
		// event (prefer the new journal): its rank's last completed step
		// +1 is the step the divergence happened in.
		side := &d.New
		if side.Line == nil || !side.Line.Parsed {
			side = &d.Old
		}
		if side.Line == nil || !side.Line.Parsed {
			fmt.Fprintln(stderr, "heterobench: no parseable diverging line to anchor the replay on")
			return 2
		}
		c.scenario.DivStep = side.Step + 1
		dump, err := bench.ReplayFromCheckpoint(c.scenario)
		if err != nil {
			fmt.Fprintf(stderr, "heterobench: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, bench.FormatReplayDump(dump))
	}
	return 1
}

// runJournalDiffSweep diffs -seed against -seed2 journals at every
// (platform, ranks) point of the weak-scaling grid and prints the
// first-divergence summary table. The sweep itself always exits 0 (it is
// a report, not an assertion); points that fail to run show as ERR cells.
func runJournalDiffSweep(stdout, stderr io.Writer, c jdConfig) int {
	o2 := c.opts
	o2.Seed = c.seed2
	nameA := fmt.Sprintf("seed %d", c.opts.Seed)
	nameB := fmt.Sprintf("seed %d", c.seed2)
	var results []triage.SweepResult
	for _, p := range c.opts.Platforms {
		for _, ranks := range bench.WeakSeries {
			if ranks > c.opts.MaxRanks {
				break
			}
			pt := triage.SweepPoint{Platform: p, Ranks: ranks}
			ja, err := bench.PointJournal(c.app, p, ranks, c.opts)
			if err != nil {
				results = append(results, triage.SweepResult{Point: pt, Err: err})
				continue
			}
			jb, err := bench.PointJournal(c.app, p, ranks, o2)
			if err != nil {
				results = append(results, triage.SweepResult{Point: pt, Err: err})
				continue
			}
			d, lines, err := triage.Diff(nameA, bytes.NewReader(ja), nameB, bytes.NewReader(jb), c.window)
			results = append(results, triage.SweepResult{Point: pt, Lines: lines, Div: d, Err: err})
		}
	}
	fmt.Fprint(stdout, triage.FormatSweep(results))
	return 0
}

// writeObs renders the collected journal and metrics once the command has
// finished (and only then: the merge order is settled when no more workers
// record).
func writeObs(stderr io.Writer, run *obs.Run, journalPath, metricsPath string) error {
	write := func(path string, render func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
		return nil
	}
	if journalPath != "" {
		if err := write(journalPath, run.WriteJournal); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		if err := write(metricsPath, run.WriteMetrics); err != nil {
			return err
		}
	}
	return nil
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, `heterobench — regenerate the paper's evaluation

commands:
  capabilities            Table I: platform capability matrix
  provision               §VI: per-platform porting plans and effort
  rd-weak                 Figure 4: RD weak scaling across platforms
  ns-weak                 Figure 5: Navier-Stokes weak scaling
  placement               Table II: EC2 placement groups and spot mix
  cost -app rd|ns         Figures 6/7: per-iteration cost
  availability [-nodes N] §VIII: queue-wait comparison
  strong [-global N]      extension: strong scaling on a fixed global mesh
  ablate -what X          ablations: precond, packing, interconnect, partition
  bidding [-nodes N]      extension: spot bid level vs. fleet cost
  trace -ranks N          write a Chrome/Perfetto trace of one job's virtual timeline
  faults [-platform P]    robustness: supervised run under injected crashes/preemptions
                          -policy restart|shrink-continue|migrate|compare, -rpn N, -trace out.json
                          storms: -storm N -cascades N -bursts N (correlated wave plan)
                          autoscaler: -odsupply N -retries N -regrow (capped market, backoff re-grow)
  journal-diff a b        triage: report the first diverging line of two -journal files
                          (exit 0 identical, 1 divergence, 2 errors); -window N context
                          -replay: re-run the scenario (faults flags) from the nearest
                          checkpoint before the divergence and dump solver/world state
                          -sweep: first-divergence grid across -platforms × ranks,
                          -seed vs -seed2 (generates its own journals)
  all                     run everything

flags: -n 10 -steps 3 -skip 1 -max 1000 -platforms puma,ellipse,lagrange,ec2 -seed 2012
       -journal run.jsonl -metrics metrics.json (deterministic run observability)`)
}

func runWeak(stdout, stderr io.Writer, app string, opts bench.Options, csvPath string) error {
	series, err := bench.RunWeakAll(app, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, bench.FormatWeak(series))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, bench.FormatCost(series))
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(bench.CSVWeak(series)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", csvPath)
	}
	return nil
}

func runPlacement(stdout, stderr io.Writer, opts bench.Options, csvPath string) error {
	res, err := bench.RunPlacement(opts)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, bench.FormatPlacement(res))
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(bench.CSVPlacement(res)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", csvPath)
	}
	return nil
}

func runCost(stdout io.Writer, app string, opts bench.Options) error {
	series, err := bench.RunWeakAll(app, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, bench.FormatCost(series))
	return nil
}

func runProvision(stdout io.Writer) error {
	out, err := bench.FormatProvisioning()
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)
	return nil
}

func runStrong(stdout io.Writer, app string, globalN int, opts bench.Options) error {
	var series []*bench.StrongSeries
	for _, p := range opts.Platforms {
		s, err := bench.RunStrong(app, p, globalN, opts)
		if err != nil {
			return err
		}
		series = append(series, s)
	}
	fmt.Fprint(stdout, bench.FormatStrong(series))
	return nil
}

func runAblate(stdout io.Writer, what string, opts bench.Options, ranks int) error {
	var out string
	var err error
	switch what {
	case "precond":
		out, err = bench.FormatPrecondAblation("ec2", ranks, opts)
	case "packing":
		out, err = bench.FormatPackingAblation("ec2", ranks, opts)
	case "interconnect":
		out, err = bench.FormatInterconnectAblation("puma", ranks, opts)
	case "partition":
		out, err = bench.FormatPartitionAblation(12, ranks)
	default:
		return fmt.Errorf("unknown ablation %q (want precond, packing, interconnect or partition)", what)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)
	return nil
}

func runAvailability(stdout io.Writer, opts bench.Options, nodes int) error {
	out, err := bench.FormatAvailability(opts, nodes)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)
	return nil
}

// runTrace executes one job per configured platform and writes Chrome-trace
// timelines ("<platform>_<app>_trace.json", or the -csv path when exactly
// one platform is configured).
func runTrace(stdout, stderr io.Writer, app string, opts bench.Options, ranks int, outPath string) error {
	for _, platform := range opts.Platforms {
		tg, err := core.NewTarget(platform, opts.Seed)
		if err != nil {
			return err
		}
		var a core.App
		switch app {
		case "rd":
			a, err = core.WeakRD(ranks, opts.PerRankN, opts.Steps)
		case "ns":
			a, err = core.WeakNS(ranks, opts.PerRankN, opts.Steps)
		default:
			return fmt.Errorf("unknown app %q", app)
		}
		if err != nil {
			return err
		}
		rep, err := tg.Run(core.JobSpec{Ranks: ranks, App: a, Obs: opts.Obs})
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v (skipped)\n", platform, err)
			continue
		}
		path := fmt.Sprintf("%s_%s_trace.json", platform, app)
		if outPath != "" && len(opts.Platforms) == 1 {
			path = outPath
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, app+" on "+platform, rep.PerRankSteps); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d ranks × %d steps; open in chrome://tracing or Perfetto)\n",
			path, rep.Ranks, rep.Iter.Steps)
	}
	return nil
}

// faultsConfig is the faults command's flag bundle, validated before any
// model runs so a typo fails in milliseconds with a usable message.
type faultsConfig struct {
	App, Platform, Policy                 string
	Ranks, RanksPerNode                   int
	Seed                                  int64
	Crashes, Preemptions, Degradations    int
	StormWave, StormCascades, StormBursts int
	OnDemandSupply, ProvisionRetries      int
	Regrow                                bool
	TracePath                             string
}

// policyCompare runs all three recovery policies on the identical plan; it
// is a CLI-only alias, not a bench policy.
const policyCompare = "compare"

// validateFaults rejects impossible fault-command configurations: negative
// seeds or event counts, non-positive rank counts, unknown applications and
// unknown policy names.
func validateFaults(c faultsConfig) error {
	if c.Seed < 0 {
		return fmt.Errorf("-seed %d is negative; the fault plan needs a seed >= 0", c.Seed)
	}
	if c.Ranks < 1 {
		return fmt.Errorf("-ranks %d: a supervised run needs at least one rank", c.Ranks)
	}
	if c.RanksPerNode < 0 {
		return fmt.Errorf("-rpn %d is negative (use 0 to pack by cores)", c.RanksPerNode)
	}
	if c.Crashes < 0 || c.Preemptions < 0 || c.Degradations < 0 {
		return fmt.Errorf("fault counts must be >= 0, got -crashes %d -preempts %d -degrades %d",
			c.Crashes, c.Preemptions, c.Degradations)
	}
	if c.StormWave < 0 {
		return fmt.Errorf("-storm %d is negative (a storm wave needs >= 2 correlated notices)", c.StormWave)
	}
	if c.StormWave == 1 {
		return fmt.Errorf("-storm 1 is a lone preemption, not a storm; use -preempts 1 instead")
	}
	if c.StormCascades < 0 || c.StormBursts < 0 {
		return fmt.Errorf("storm event counts must be >= 0, got -cascades %d -bursts %d",
			c.StormCascades, c.StormBursts)
	}
	if c.StormWave == 0 && (c.StormCascades > 0 || c.StormBursts > 0) {
		return fmt.Errorf("-cascades/-bursts correlate events with a storm wave; add -storm N (>= 2)")
	}
	if c.Regrow && c.Policy != bench.PolicyMigrate && c.Policy != policyCompare {
		return fmt.Errorf("-regrow is the migrate autoscaler's knob; use -policy %s or %s",
			bench.PolicyMigrate, policyCompare)
	}
	switch c.App {
	case "rd", "ns":
	default:
		return fmt.Errorf("unknown app %q (want rd or ns)", c.App)
	}
	switch c.Policy {
	case bench.PolicyRestart, bench.PolicyShrink, bench.PolicyMigrate, policyCompare:
	default:
		return fmt.Errorf("unknown policy %q (want %s, %s, %s or %s)",
			c.Policy, bench.PolicyRestart, bench.PolicyShrink, bench.PolicyMigrate, policyCompare)
	}
	return nil
}

// runFaults executes one weak-scaling job under a seeded fault plan with
// the recovery supervisor and prints the recovery report: the decision log
// plus recovered-vs-clean numbers with the overhead itemised. With -policy
// compare it runs the same plan under all three policies and prints them
// side by side; with -trace it also writes the recovered run's Chrome trace with
// the supervisor's decisions overlaid as instant markers.
func runFaults(stdout, stderr io.Writer, c faultsConfig, opts bench.Options) error {
	if err := validateFaults(c); err != nil {
		return err
	}
	fo := bench.FaultOptions{
		App: c.App, Platform: c.Platform, Ranks: c.Ranks, RanksPerNode: c.RanksPerNode,
		PerRankN: opts.PerRankN, Steps: opts.Steps, SkipSteps: opts.SkipSteps,
		Seed:    uint64(c.Seed),
		Crashes: c.Crashes, Preemptions: c.Preemptions, Degradations: c.Degradations,
		StormWave: c.StormWave, StormCascades: c.StormCascades, StormBursts: c.StormBursts,
		OnDemandSupply: c.OnDemandSupply, ProvisionRetries: c.ProvisionRetries, Regrow: c.Regrow,
		Obs: opts.Obs,
	}
	var traced *bench.RecoveryReport
	switch c.Policy {
	case policyCompare:
		cmp, err := bench.CompareRecovery(fo)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, bench.FormatRecoveryComparison(cmp))
		traced = cmp.Shrink
	default:
		fo.Policy = c.Policy
		rep, err := bench.RunSupervised(fo)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, bench.FormatRecovery(rep))
		traced = rep
	}
	if c.TracePath == "" {
		return nil
	}
	if traced == nil || traced.Final == nil {
		return fmt.Errorf("no finished run to trace")
	}
	f, err := os.Create(c.TracePath)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s on %s (%s)", c.App, c.Platform, traced.Policy)
	if err := trace.WriteChromeWithDecisions(f, name, traced.Final.PerRankSteps, traced.Decisions); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (decision markers overlay the rank timelines)\n", c.TracePath)
	return nil
}

func runAll(stdout, stderr io.Writer, opts bench.Options, nodes int) error {
	fmt.Fprintln(stdout, "==== Table I: capabilities ====")
	fmt.Fprint(stdout, bench.FormatCapabilities())
	fmt.Fprintln(stdout, "\n==== §VI: provisioning ====")
	if err := runProvision(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n==== Figure 4: RD weak scaling (+ Figure 6 costs) ====")
	if err := runWeak(stdout, stderr, "rd", opts, ""); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n==== Figure 5: NS weak scaling (+ Figure 7 costs) ====")
	if err := runWeak(stdout, stderr, "ns", opts, ""); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n==== Table II: placement groups ====")
	if err := runPlacement(stdout, stderr, opts, ""); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n==== §VIII: availability ====")
	return runAvailability(stdout, opts, nodes)
}

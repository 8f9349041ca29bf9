// Command heterobench regenerates the tables and figures of "Experiences
// with Target-Platform Heterogeneity in Clouds, Grids, and On-Premises
// Resources" from the models in this repository.
//
// Usage:
//
//	heterobench capabilities                 # Table I
//	heterobench provision                    # §VI porting plans
//	heterobench rd-weak   [flags]            # Figures 4 and 6 (+ raw series)
//	heterobench ns-weak   [flags]            # Figures 5 and 7
//	heterobench placement [flags]            # Table II
//	heterobench availability [-nodes N]      # §VIII availability comparison
//	heterobench faults [-platform P] [flags] # supervised run under injected faults
//	heterobench journal-diff a.jsonl b.jsonl # triage: first diverging journal line (+ -replay <faults flags>)
//
// Each file under results/ is the stdout of one command; results/README.md
// lists them.
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

// run is the whole CLI: parse and validate, then execute. It exists apart
// from main so tests can drive commands end to end against in-memory
// writers.
func run(args []string, stdout, stderr io.Writer) int {
	c := parseArgs(args, stderr)
	if c == nil {
		return 2
	}
	return c.execute(stdout, stderr)
}

// config is one invocation, parsed and validated: execute runs it as it
// stands. opts is the weak-scaling grid (-n -steps -skip -max -seed
// -platforms); fo the fault scenario faults runs and journal-diff -replay
// re-runs, whose App and Ranks the strong, trace and ablate commands read
// too.
type config struct {
	cmd                   string
	opts                  bench.Options
	fo                    bench.FaultOptions
	nodes, global, window int
	what, csv, trace      string
	journal, metrics      string
	replay, sweep         bool
	files                 []string // positional arguments: journal-diff's two journals
}

// policyCompare runs all three recovery policies on the identical plan; it
// is a CLI-only alias, not a bench policy.
const policyCompare = "compare"

// parseArgs parses and validates every flag exactly once, before any model
// runs. Flags may come before, between or after positional arguments. It
// returns nil after writing one "heterobench:" line to stderr when the
// arguments cannot run.
func parseArgs(args []string, stderr io.Writer) *config {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "heterobench: no command given")
		usage(stderr)
		return nil
	}
	c := &config{cmd: args[0]}
	o, fo := &c.opts, &c.fo
	fs := flag.NewFlagSet(c.cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&o.PerRankN, "n", 10, "elements per rank per dimension (paper: 20)")
	fs.IntVar(&o.Steps, "steps", 3, "BDF2 steps per run")
	fs.IntVar(&o.SkipSteps, "skip", 1, "initial iterations to discard from averages")
	fs.IntVar(&o.MaxRanks, "max", 1000, "largest process count of the series")
	platforms := fs.String("platforms", "puma,ellipse,lagrange,ec2", "comma-separated platforms")
	seed := fs.Int64("seed", 2012, "seed for queue-wait and spot-market models (must be >= 1)")
	fs.StringVar(&fo.App, "app", "rd", "application for the strong/trace/faults commands (rd or ns)")
	fs.IntVar(&c.nodes, "nodes", 8, "node count for the availability command")
	fs.IntVar(&c.global, "global", 30, "global mesh edge for the strong command")
	fs.IntVar(&fo.Ranks, "ranks", 27, "rank count for the ablate, trace and faults commands")
	fs.StringVar(&c.what, "what", "precond", "ablation: "+ablationNames())
	fs.StringVar(&c.csv, "csv", "", "also write the raw series as CSV to this file (rd-weak, ns-weak, placement); "+
		"trace: write the Chrome trace to this file instead of <platform>_<app>_trace.json when -platforms names one platform")
	fs.StringVar(&fo.Platform, "platform", "ec2", "single platform for the faults command")
	fs.IntVar(&fo.Crashes, "crashes", 1, "node crashes injected by the faults command")
	fs.IntVar(&fo.Preemptions, "preempts", 1, "spot preemptions injected by the faults command")
	fs.IntVar(&fo.Degradations, "degrades", 0, "straggler windows injected by the faults command")
	fs.StringVar(&fo.Policy, "policy", bench.PolicyRestart,
		"recovery policy for the faults command: restart, shrink-continue, migrate or compare")
	fs.IntVar(&fo.RanksPerNode, "rpn", 0, "ranks per node for the faults command (0 = pack by cores; shrink needs >= 2 nodes)")
	fs.IntVar(&fo.StormWave, "storm", 0, "faults command: correlated storm — wave of N simultaneous-notice preemptions (>= 2; replaces -crashes/-preempts/-degrades)")
	fs.IntVar(&fo.StormCascades, "cascades", 0, "faults command: storm cascades — preemptions re-hitting wave slots mid-recovery (needs -storm)")
	fs.IntVar(&fo.StormBursts, "bursts", 0, "faults command: storm straggler bursts — correlated degradation windows (needs -storm)")
	fs.IntVar(&fo.OnDemandSupply, "odsupply", 0, "faults command: cap the replacement market's on-demand pool (0 = unlimited, negative = none; makes exhaustion reachable)")
	fs.IntVar(&fo.ProvisionRetries, "retries", 0, "faults command: migrate's backoff retries after an exhausted acquisition (0 = default 4, negative = none); restart never retries and degrades at once")
	fs.BoolVar(&fo.Regrow, "regrow", false, "faults command: let the migrate autoscaler re-provision width lost to earlier degradations")
	fs.StringVar(&c.trace, "trace", "", "faults command: also write the recovered timeline with decision markers as a Chrome trace to this file")
	fs.StringVar(&c.journal, "journal", "", "write the run's deterministic event journal (JSONL) to this file")
	fs.StringVar(&c.metrics, "metrics", "", "write the run's metric registry (JSON) to this file")
	fs.IntVar(&c.window, "window", 3, "journal-diff: surrounding lines shown around the divergence")
	fs.BoolVar(&c.replay, "replay", false, "journal-diff: re-run the recorded scenario (every faults flag) from the nearest checkpoint before the divergence and dump state")
	fs.BoolVar(&c.sweep, "sweep", false, "journal-diff: first-divergence report across the platform × rank grid, two runs at -seed (no journal files)")
	// fs.Parse stops at the first positional argument: set it aside and
	// parse on, so a flag after a file name counts like one before it.
	for rest := args[1:]; len(rest) > 0; {
		if err := fs.Parse(rest); err != nil {
			fmt.Fprintf(stderr, "heterobench: %v\nflags of %s:\n", err, c.cmd)
			fs.SetOutput(stderr)
			fs.PrintDefaults()
			return nil
		}
		if rest = fs.Args(); len(rest) > 0 {
			c.files, rest = append(c.files, rest[0]), rest[1:]
		}
	}
	o.Platforms = strings.Split(*platforms, ",")
	if err := c.validate(*seed); err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return nil
	}
	o.Seed = uint64(*seed)
	fo.PerRankN, fo.Steps, fo.SkipSteps, fo.Seed = o.PerRankN, o.Steps, o.SkipSteps, o.Seed
	return c
}

// validate checks the final flag values once: the sizes and seeds every
// command shares, the platform names, what the command itself needs, and
// that only journal-diff was given positional arguments.
func (c *config) validate(seed int64) error {
	// The option defaults read a zero seed as 2012, so -seed 0 would run as
	// another seed than the one asked for.
	switch {
	case seed < 0:
		return fmt.Errorf("-seed %d is negative; the availability and spot-market models need a seed >= 1", seed)
	case seed == 0:
		return fmt.Errorf("-seed 0 is below 1 (0 would run as the default 2012); the availability and spot-market models need a seed >= 1")
	}
	// A negative size has no meaning, and neither has 0 for -n, -steps and
	// -max: a mesh, a run and a series need at least one element, step and
	// rank. 0 is a size for -window, and for -skip in a one-step run; -nodes
	// and -global are checked per command below.
	o := c.opts
	for _, f := range []struct {
		name   string
		v, min int
	}{{"n", o.PerRankN, 1}, {"steps", o.Steps, 1}, {"skip", o.SkipSteps, 0}, {"max", o.MaxRanks, 1},
		{"nodes", c.nodes, 0}, {"global", c.global, 0}, {"window", c.window, 0}} {
		switch {
		case f.v < 0:
			return fmt.Errorf("-%s %d is negative", f.name, f.v)
		case f.v < f.min:
			return fmt.Errorf("-%s %d is below %d", f.name, f.v, f.min)
		}
	}
	// The option defaults discard the first step of a multi-step run
	// whatever -skip says, so -skip 0 would run as -skip 1.
	if o.SkipSteps == 0 && o.Steps > 1 {
		return fmt.Errorf("-skip 0 with -steps %d: a multi-step run always discards its first step; pass -skip 1 or more", o.Steps)
	}
	for _, name := range append([]string{c.fo.Platform}, o.Platforms...) {
		if _, err := platform.Get(name); err != nil {
			return err
		}
	}
	if err := c.validateCommand(); err != nil {
		return err
	}
	if len(c.files) > 0 && c.cmd != "journal-diff" {
		return fmt.Errorf("unexpected argument %q: %s takes flags only", c.files[0], c.cmd)
	}
	return nil
}

// validateCommand rejects what the command cannot run with: an unknown
// command, application, ablation or policy name, a rank, node or mesh-edge
// count below one where the command needs one, a rank count that is not a
// cube where the command lays a weak-scaling mesh over the ranks, and
// journal-diff's file arguments in the wrong number.
func (c *config) validateCommand() error {
	ranks, app := c.fo.Ranks, c.fo.App
	_, notCube := mesh.CubeGrid(ranks)
	switch c.cmd {
	case "capabilities", "provision", "rd-weak", "ns-weak", "placement", "help", "-h", "--help":
	case "strong", "trace":
		switch {
		case app != "rd" && app != "ns":
			return fmt.Errorf("unknown app %q (want rd or ns)", app)
		case c.cmd == "strong" && c.global < 1:
			return fmt.Errorf("-global %d: the strong-scaling mesh needs at least one element per edge", c.global)
		case c.cmd == "trace" && ranks < 1:
			return fmt.Errorf("-ranks %d: the trace command needs at least one rank", ranks)
		case c.cmd == "trace" && notCube != nil:
			return fmt.Errorf("-ranks %d is not a cube: the trace command lays its mesh over p³ ranks", ranks)
		}
	case "ablate":
		switch {
		case ablation(c.what) == nil:
			return fmt.Errorf("unknown ablation %q (want %s)", c.what, ablationNames())
		case ranks < 1:
			return fmt.Errorf("-ranks %d: the ablate command needs at least one rank", ranks)
		case c.what != "partition" && notCube != nil:
			return fmt.Errorf("-ranks %d is not a cube: the ablate command lays its mesh over p³ ranks", ranks)
		}
	case "bidding":
		if c.nodes < 1 {
			return fmt.Errorf("-nodes %d: the bid sweep needs at least one node", c.nodes)
		}
	case "availability":
		if c.nodes < 1 {
			return fmt.Errorf("-nodes %d: the availability comparison needs at least one node", c.nodes)
		}
	case "faults":
		return c.validateScenario()
	case "journal-diff":
		switch {
		case c.sweep && len(c.files) > 0:
			return fmt.Errorf("journal-diff -sweep generates its own journals; drop the file arguments")
		case !c.sweep && len(c.files) != 2:
			return fmt.Errorf("journal-diff takes two journals, got %d argument(s); usage: journal-diff old.jsonl new.jsonl [-window N] [-replay <faults flags>], or journal-diff -sweep", len(c.files))
		case c.replay && c.fo.Policy == policyCompare:
			return fmt.Errorf("-replay re-runs one recorded run, and a -policy compare journal holds three; name the policy to replay")
		case c.replay:
			return c.validateScenario()
		}
	default:
		return fmt.Errorf("unknown command %q (heterobench help lists them)", c.cmd)
	}
	return nil
}

// validateScenario checks the fault scenario with the check the supervisor
// itself makes (compare with CompareRecovery's, which runs every policy),
// plus the cube its weak-scaling mesh needs.
func (c *config) validateScenario() error {
	fo := c.fo
	switch fo.Policy {
	case policyCompare:
		fo.Policy = ""
	case "":
		return fmt.Errorf("-policy is empty (want restart, shrink-continue, migrate or compare)")
	}
	if err := bench.ValidateFaults(fo); err != nil {
		return err
	}
	if _, err := mesh.CubeGrid(fo.Ranks); err != nil {
		return fmt.Errorf("-ranks %d is not a cube: the %s command lays its mesh over p³ ranks", fo.Ranks, c.cmd)
	}
	return nil
}

// execute runs the validated command. Every command but journal-diff then
// writes the observability files it was asked for.
func (c *config) execute(stdout, stderr io.Writer) int {
	if c.cmd == "journal-diff" {
		return runJournalDiff(stdout, stderr, c)
	}
	var obsRun *obs.Run
	if c.journal != "" || c.metrics != "" {
		obsRun = obs.NewRun()
	}
	opts, app, ranks := c.opts, c.fo.App, c.fo.Ranks
	opts.Obs, c.fo.Obs = obsRun, obsRun
	// The table commands return their text, empty on error.
	var out string
	var err error
	switch c.cmd {
	case "capabilities":
		out = bench.FormatCapabilities()
	case "provision":
		out, err = bench.FormatProvisioning()
	case "rd-weak":
		err = runWeak(stdout, stderr, "rd", opts, c.csv)
	case "ns-weak":
		err = runWeak(stdout, stderr, "ns", opts, c.csv)
	case "placement":
		err = runPlacement(stdout, stderr, opts, c.csv)
	case "availability":
		out, err = bench.FormatAvailability(opts, c.nodes)
	case "strong":
		err = runStrong(stdout, app, c.global, opts)
	case "bidding":
		out, err = bench.FormatBidSweep(opts, c.nodes, 50)
	case "ablate":
		out, err = ablation(c.what)(opts, ranks)
	case "trace":
		err = runTrace(stdout, stderr, app, opts, ranks, c.csv)
	case "faults":
		err = runFaults(stdout, stderr, c.fo, c.trace)
	default: // help, -h, --help
		usage(stderr)
	}
	fmt.Fprint(stdout, out)
	// Observability is written best-effort even when the command failed:
	// the journal is most valuable exactly then (journal-diff triage of a
	// failing run). The command's own error stays the exit status; a write
	// failure on top of it is only reported.
	if werr := writeObs(stderr, obsRun, c.journal, c.metrics); werr != nil {
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

// runJournalDiff is the triage front-end. Exit contract: 0 when the
// journals are byte-identical (or the sweep completed), 1 when a
// divergence was found and reported, 2 on usage, I/O or parse errors.
func runJournalDiff(stdout, stderr io.Writer, c *config) int {
	if c.sweep {
		return runJournalDiffSweep(stdout, c)
	}
	oldPath, newPath := c.files[0], c.files[1]
	of, err := os.Open(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return 2
	}
	defer of.Close()
	nf, err := os.Open(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "heterobench: %v\n", err)
		return 2
	}
	defer nf.Close()
	d, lines, err := triage.Diff(oldPath, of, newPath, nf, c.window)
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
		dump, err := bench.ReplayFromCheckpoint(c.fo, side.Step+1)
		if err != nil {
			fmt.Fprintf(stderr, "heterobench: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, bench.FormatReplayDump(dump))
	}
	return 1
}

// runJournalDiffSweep diffs two runs at -seed at every (platform, ranks)
// point of the weak-scaling grid and prints the first-divergence summary
// table: fault-free journals do not depend on the seed, so any cell but
// "same" is nondeterminism. The sweep itself always exits 0 (it is a
// report, not an assertion); points that fail to run show as ERR cells.
func runJournalDiffSweep(stdout io.Writer, c *config) int {
	nameA := fmt.Sprintf("seed %d run 1", c.opts.Seed)
	nameB := fmt.Sprintf("seed %d run 2", c.opts.Seed)
	var results []triage.SweepResult
	for _, p := range c.opts.Platforms {
		for _, ranks := range bench.WeakSeries {
			if ranks > c.opts.MaxRanks {
				break
			}
			pt := triage.SweepPoint{Platform: p, Ranks: ranks}
			ja, err := bench.PointJournal(c.fo.App, p, ranks, c.opts)
			if err != nil {
				results = append(results, triage.SweepResult{Point: pt, Err: err})
				continue
			}
			jb, err := bench.PointJournal(c.fo.App, p, ranks, c.opts)
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
	fmt.Fprintf(stderr, `heterobench — regenerate the paper's evaluation

commands:
  capabilities            Table I: platform capability matrix
  provision               §VI: per-platform porting plans and effort
  rd-weak                 Figures 4/6: RD weak scaling and per-iteration cost
  ns-weak                 Figures 5/7: Navier-Stokes weak scaling and per-iteration cost
  placement               Table II: EC2 placement groups and spot mix
  availability [-nodes N] §VIII: queue-wait comparison
  strong [-global N]      extension: strong scaling on a fixed global mesh
  ablate -what X          ablations: %s
  bidding [-nodes N]      extension: spot bid level vs. fleet cost
  trace -ranks N          write a Chrome/Perfetto trace of one job's virtual timeline
  faults [-platform P]    robustness: supervised run under injected crashes/preemptions
                          -policy restart|shrink-continue|migrate|compare, -rpn N, -trace out.json
                          storms: -storm N -cascades N -bursts N (correlated wave plan)
                          autoscaler: -odsupply N -retries N -regrow (capped market, backoff re-grow)
  journal-diff a b        triage: report the first diverging line of two -journal files
                          (exit 0 identical, 1 divergence, 2 errors); -window N context
                          -replay: re-run the recorded run from the nearest checkpoint
                          before the divergence and dump solver/world state; pass its
                          faults flags, all of which reach the replay (not -policy compare,
                          whose journal holds three runs)
                          -sweep: first-divergence grid across -platforms × ranks,
                          two runs at -seed (generates its own journals)

flags: -n 10 -steps 3 -skip 1 -max 1000 -platforms puma,ellipse,lagrange,ec2 -seed 2012
       -journal run.jsonl -metrics metrics.json (deterministic run observability)
       flags may stand before or after journal-diff's file names; no other command
       takes a positional argument, and every value is checked before any model runs
`, ablationNames())
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

func runStrong(stdout io.Writer, app string, globalN int, opts bench.Options) error {
	var series []*bench.Series
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

// ablations lists the ablate command's -what names, in help order, each
// with the run that prints its table.
var ablations = []struct {
	name string
	run  func(opts bench.Options, ranks int) (string, error)
}{
	{"precond", func(o bench.Options, ranks int) (string, error) { return bench.FormatPrecondAblation("ec2", ranks, o) }},
	{"packing", func(o bench.Options, ranks int) (string, error) { return bench.FormatPackingAblation("ec2", ranks, o) }},
	{"interconnect", func(o bench.Options, ranks int) (string, error) {
		return bench.FormatInterconnectAblation("puma", ranks, o)
	}},
	{"partition", func(_ bench.Options, ranks int) (string, error) { return bench.FormatPartitionAblation(12, ranks) }},
}

// ablation returns the run of the named ablation, or nil for an unknown name.
func ablation(name string) func(bench.Options, int) (string, error) {
	for _, a := range ablations {
		if a.name == name {
			return a.run
		}
	}
	return nil
}

// ablationNames lists the ablation names for help and error text: "a, b or c".
func ablationNames() string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
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
		a, err := core.Weak(app, ranks, opts.PerRankN, opts.Steps)
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

// runFaults executes one weak-scaling job under a seeded fault plan with
// the recovery supervisor and prints the recovery report: the decision log
// plus recovered-vs-clean numbers with the overhead itemised. With -policy
// compare it runs the same plan under all three policies and prints them
// side by side; with -trace it also writes the recovered run's Chrome trace with
// the supervisor's decisions overlaid as instant markers.
func runFaults(stdout, stderr io.Writer, fo bench.FaultOptions, tracePath string) error {
	var traced *bench.RecoveryReport
	switch fo.Policy {
	case policyCompare:
		cmp, err := bench.CompareRecovery(fo)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, bench.FormatRecoveryComparison(cmp))
		traced = cmp.Shrink
	default:
		rep, err := bench.RunSupervised(fo)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, bench.FormatRecovery(rep))
		traced = rep
	}
	if tracePath == "" {
		return nil
	}
	if traced == nil || traced.Final == nil {
		return fmt.Errorf("no finished run to trace")
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s on %s (%s)", fo.App, fo.Platform, traced.Policy)
	if err := trace.WriteChromeWithDecisions(f, name, traced.Final.PerRankSteps, traced.Decisions); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (decision markers overlay the rank timelines)\n", tracePath)
	return nil
}

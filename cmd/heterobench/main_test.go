package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterohpc/internal/bench"
)

func tinyOpts() bench.Options {
	return bench.Options{
		PerRankN: 2, Steps: 1, MaxRanks: 8, Seed: 1,
		Platforms: []string{"puma", "ec2"},
	}
}

func TestRunProvision(t *testing.T) {
	if err := runProvision(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWeakWritesCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "weak.csv")
	if err := runWeak(io.Discard, io.Discard, "rd", tinyOpts(), csv); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "app,platform,ranks") {
		t.Fatalf("csv header wrong: %q", string(data)[:40])
	}
}

func TestRunPlacementWritesCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "placement.csv")
	if err := runPlacement(io.Discard, io.Discard, tinyOpts(), csv); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatal(err)
	}
}

func TestRunCostAndAvailability(t *testing.T) {
	if err := runCost(io.Discard, "rd", tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if err := runCost(io.Discard, "bogus", tinyOpts()); err == nil {
		t.Fatal("bogus app accepted")
	}
	if err := runAvailability(io.Discard, tinyOpts(), 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunStrong(t *testing.T) {
	o := tinyOpts()
	o.Platforms = []string{"ec2"}
	if err := runStrong(io.Discard, "rd", 4, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblate(t *testing.T) {
	o := tinyOpts()
	if err := runAblate(io.Discard, "partition", o, 8); err != nil {
		t.Fatal(err)
	}
	if err := runAblate(io.Discard, "bogus", o, 8); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

func TestValidateFaults(t *testing.T) {
	ok := faultsConfig{App: "rd", Platform: "puma", Policy: bench.PolicyRestart,
		Ranks: 8, Seed: 2012, Crashes: 1}
	cases := []struct {
		name    string
		mutate  func(*faultsConfig)
		wantErr string // substring; "" means valid
	}{
		{"defaults are valid", func(c *faultsConfig) {}, ""},
		{"shrink policy is valid", func(c *faultsConfig) { c.Policy = bench.PolicyShrink }, ""},
		{"migrate policy is valid", func(c *faultsConfig) { c.Policy = bench.PolicyMigrate }, ""},
		{"compare policy is valid", func(c *faultsConfig) { c.Policy = policyCompare }, ""},
		{"zero fault counts are valid", func(c *faultsConfig) { c.Crashes = 0 }, ""},
		{"negative seed", func(c *faultsConfig) { c.Seed = -1 }, "seed"},
		{"very negative seed", func(c *faultsConfig) { c.Seed = -1 << 40 }, "seed"},
		{"zero ranks", func(c *faultsConfig) { c.Ranks = 0 }, "rank"},
		{"negative ranks per node", func(c *faultsConfig) { c.RanksPerNode = -2 }, "-rpn"},
		{"negative crashes", func(c *faultsConfig) { c.Crashes = -1 }, "crashes"},
		{"negative preemptions", func(c *faultsConfig) { c.Preemptions = -3 }, "preempts"},
		{"negative degradations", func(c *faultsConfig) { c.Degradations = -1 }, "degrades"},
		{"unknown app", func(c *faultsConfig) { c.App = "lbm" }, `app "lbm"`},
		{"unknown policy", func(c *faultsConfig) { c.Policy = "abandon-ship" }, `policy "abandon-ship"`},
		{"misspelled policy", func(c *faultsConfig) { c.Policy = "shrink" }, bench.PolicyShrink},
		{"misspelled migrate", func(c *faultsConfig) { c.Policy = "migrate-continue" }, bench.PolicyMigrate},
		{"storm wave is valid", func(c *faultsConfig) { c.StormWave = 3 }, ""},
		{"storm with cascades and bursts is valid",
			func(c *faultsConfig) { c.StormWave = 2; c.StormCascades = 1; c.StormBursts = 1 }, ""},
		{"negative storm", func(c *faultsConfig) { c.StormWave = -2 }, "-storm -2 is negative"},
		{"storm of one", func(c *faultsConfig) { c.StormWave = 1 }, "lone preemption"},
		{"negative cascades", func(c *faultsConfig) { c.StormWave = 3; c.StormCascades = -1 }, "-cascades -1"},
		{"negative bursts", func(c *faultsConfig) { c.StormWave = 3; c.StormBursts = -2 }, "-bursts -2"},
		{"cascades without a storm", func(c *faultsConfig) { c.StormCascades = 1 }, "add -storm"},
		{"bursts without a storm", func(c *faultsConfig) { c.StormBursts = 2 }, "add -storm"},
		{"regrow under restart", func(c *faultsConfig) { c.Regrow = true }, "-regrow"},
		{"regrow under migrate is valid",
			func(c *faultsConfig) { c.Regrow = true; c.Policy = bench.PolicyMigrate }, ""},
		{"regrow under compare is valid",
			func(c *faultsConfig) { c.Regrow = true; c.Policy = policyCompare }, ""},
		{"capped market is valid",
			func(c *faultsConfig) { c.OnDemandSupply = -1; c.ProvisionRetries = 2 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok
			tc.mutate(&c)
			err := validateFaults(c)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsBadArguments drives the whole CLI in-process: a negative
// size or seed, a zero -n, -steps, -max or -seed, a -skip 0 the defaults
// would run as 1, an unknown application, ablation
// or policy name, a rank, node or mesh-edge count the command cannot run
// with, or a retired command, must exit 2 up front with a message, never
// panic, and leave no file behind.
func TestRunRejectsBadArguments(t *testing.T) {
	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"rd-weak", "-n", "-2", "-max", "8", "-journal", "run.jsonl"}, "-n -2 is negative"},
		{[]string{"rd-weak", "-steps", "-1", "-max", "8"}, "-steps -1 is negative"},
		{[]string{"rd-weak", "-skip", "-1", "-max", "8"}, "-skip -1 is negative"},
		{[]string{"rd-weak", "-max", "-8", "-csv", "weak.csv"}, "-max -8 is negative"},
		{[]string{"availability", "-nodes", "-1"}, "-nodes -1 is negative"},
		{[]string{"bidding", "-nodes", "-4"}, "-nodes -4 is negative"},
		{[]string{"strong", "-global", "-30", "-metrics", "metrics.json"}, "-global -30 is negative"},
		{[]string{"journal-diff", "a.jsonl", "b.jsonl", "-replay", "-n", "-2"}, "-n -2 is negative"},
		{[]string{"journal-diff", "a.jsonl", "b.jsonl", "-window", "-3"}, "-window -3 is negative"},
		{[]string{"journal-diff", "a.jsonl", "b.jsonl", "-replay", "-steps", "0"}, "-steps 0 is below 1"},
		{[]string{"rd-weak", "-n", "0", "-max", "1", "-journal", "run.jsonl"}, "-n 0 is below 1"},
		{[]string{"rd-weak", "-max", "0", "-csv", "weak.csv"}, "-max 0 is below 1"},
		{[]string{"ns-weak", "-steps", "0", "-max", "8"}, "-steps 0 is below 1"},
		{[]string{"trace", "-ranks", "8", "-steps", "0", "-csv", "trace.json"}, "-steps 0 is below 1"},
		{[]string{"trace", "-n", "0", "-csv", "trace.json"}, "-n 0 is below 1"},
		{[]string{"rd-weak", "-seed", "-1", "-max", "8"}, "-seed -1 is negative"},
		{[]string{"rd-weak", "-seed", "0", "-max", "8", "-csv", "weak.csv"}, "-seed 0 is below 1"},
		{[]string{"rd-weak", "-skip", "0", "-steps", "3", "-max", "8", "-journal", "run.jsonl"}, "-skip 0 with -steps 3"},
		{[]string{"cost", "-app", "xx", "-journal", "run.jsonl"}, `unknown app "xx"`},
		{[]string{"strong", "-app", "xx"}, `unknown app "xx"`},
		{[]string{"ablate", "-what", "nope"}, `unknown ablation "nope"`},
		{[]string{"ablate", "-ranks", "0"}, "-ranks 0: the ablate command needs at least one rank"},
		{[]string{"faults", "-policy", "bogus", "-trace", "t.json"}, `unknown policy "bogus"`},
		{[]string{"faults", "-storm", "-1"}, "-storm -1 is negative"},
		{[]string{"trace", "-ranks", "0", "-csv", "trace.json"}, "-ranks 0: the trace command needs at least one rank"},
		{[]string{"strong", "-global", "0"}, "-global 0: the strong-scaling mesh needs"},
		{[]string{"bidding", "-nodes", "0"}, "-nodes 0: the bid sweep needs at least one node"},
		{[]string{"availability", "-nodes", "0", "-journal", "run.jsonl"}, "-nodes 0: the availability comparison needs at least one node"},
		{[]string{"all", "-nodes", "0", "-max", "8"}, "-nodes 0: the availability comparison needs at least one node"},
		{[]string{"trace", "-ranks", "5", "-csv", "trace.json"}, "-ranks 5 is not a cube: the trace command"},
		{[]string{"faults", "-ranks", "12", "-metrics", "metrics.json"}, "-ranks 12 is not a cube: the faults command"},
		{[]string{"ablate", "-what", "precond", "-ranks", "5"}, "-ranks 5 is not a cube: the ablate command"},
		{[]string{"ablate", "-what", "packing", "-ranks", "9"}, "-ranks 9 is not a cube: the ablate command"},
		{[]string{"ablate", "-what", "interconnect", "-ranks", "26"}, "-ranks 26 is not a cube: the ablate command"},
		{[]string{"rd-weak", "-platforms", "puma,nope", "-max", "8", "-csv", "weak.csv"}, `unknown platform "nope"`},
		{[]string{"faults", "-platform", "nope", "-journal", "run.jsonl"}, `unknown platform "nope"`},
		{[]string{"perf"}, `unknown command "perf"`},
		{[]string{"rd-weak", "-cpuprofile", "cpu.pprof"}, "not defined: -cpuprofile"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			out := stdout.String() + stderr.String()
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not say %q:\n%s", tc.want, out)
			}
			if strings.Contains(out, "panic:") || strings.Contains(out, "goroutine") {
				t.Errorf("output shows a crash:\n%s", out)
			}
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				t.Errorf("left %s behind", f.Name())
				os.Remove(filepath.Join(dir, f.Name()))
			}
		})
	}
}

func TestRunFaultsCompareWritesDecisionTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "faults_trace.json")
	o := tinyOpts()
	o.Steps = 3
	err := runFaults(io.Discard, io.Discard, faultsConfig{
		App: "rd", Platform: "puma", Policy: policyCompare,
		Ranks: 8, RanksPerNode: 2, Seed: 7, Crashes: 1, TracePath: out,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traceEvents", `"ph":"i"`, "shrink"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("decision trace missing %q", want)
		}
	}
	if err := runFaults(io.Discard, io.Discard, faultsConfig{App: "rd", Policy: "bogus", Ranks: 8, Seed: 1}, o); err == nil {
		t.Fatal("invalid config reached the supervisor")
	}
}

// TestRunFaultsStorm drives the acceptance storm through the CLI path: a
// 3-notice wave with one cascade on a dry on-demand market, recovered by
// the arbiter with backoff re-provisioning.
func TestRunFaultsStorm(t *testing.T) {
	o := tinyOpts()
	o.PerRankN, o.Steps = 3, 3
	var out strings.Builder
	err := runFaults(&out, io.Discard, faultsConfig{
		App: "rd", Platform: "ec2", Policy: bench.PolicyMigrate,
		Ranks: 8, RanksPerNode: 2, Seed: 12,
		StormWave: 3, StormCascades: 1, OnDemandSupply: -1,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"storm arbiter: 2 notice(s) coalesced", "1 cascade re-plan(s)",
		"2 exhausted-market backoff retry(ies)", "finished on 8 ranks",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("storm report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	o := tinyOpts()
	o.Platforms = []string{"ec2"}
	out := filepath.Join(dir, "trace.json")
	if err := runTrace(io.Discard, io.Discard, "rd", o, 8, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "traceEvents") {
		t.Fatal("trace file malformed")
	}
	if err := runTrace(io.Discard, io.Discard, "bogus", o, 8, ""); err == nil {
		t.Fatal("unknown app accepted")
	}
}

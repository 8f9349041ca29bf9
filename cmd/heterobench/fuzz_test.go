package main

import (
	"fmt"
	"strings"
	"testing"

	"heterohpc/internal/bench"
	"heterohpc/internal/mesh"
	"heterohpc/internal/platform"
)

// FuzzParseArgs holds parse-and-validate to its contract on any argument
// vector (one argument per line of the input): it never panics and runs no
// model, and it either returns a configuration inside every documented
// bound, writing nothing, or returns nil after exactly one "heterobench:"
// line on stderr (the exit 2 of run). The checked-in corpus holds the
// vectors of TestRunRejectsBadArguments.
func FuzzParseArgs(f *testing.F) {
	f.Add("capabilities")
	f.Add("faults\n-ranks\n8\n-rpn\n2\n-storm\n3\n-cascades\n1\n-policy\nmigrate\n-regrow")
	f.Add("journal-diff\n-replay\na.jsonl\n-storm\n2\nb.jsonl\n-policy\nshrink-continue")
	f.Add("journal-diff\n-sweep\n-seed2\n7\n-platforms\npuma,ec2") // refused: no -seed2 flag
	f.Add("rd-weak\n-h")
	f.Fuzz(func(t *testing.T, s string) {
		var stderr strings.Builder
		c := parseArgs(strings.Split(s, "\n"), &stderr)
		if c == nil {
			if n := strings.Count("\n"+stderr.String(), "\nheterobench:"); n != 1 {
				t.Fatalf("refused %q with %d heterobench: lines:\n%s", s, n, stderr.String())
			}
			return
		}
		if stderr.Len() > 0 {
			t.Fatalf("accepted %q but wrote:\n%s", s, stderr.String())
		}
		if err := inBounds(c); err != nil {
			t.Fatalf("accepted %q out of bounds: %v", s, err)
		}
	})
}

// inBounds restates, apart from validate, the bounds the flag help and
// usage document for a configuration execute may run.
func inBounds(c *config) error {
	o, fo := c.opts, c.fo
	switch {
	case o.PerRankN < 1 || o.Steps < 1 || o.MaxRanks < 1 || o.SkipSteps < 0 || o.SkipSteps == 0 && o.Steps > 1:
		return fmt.Errorf("grid %+v", o)
	case o.Seed < 1:
		return fmt.Errorf("seed %d", o.Seed)
	case c.window < 0 || c.nodes < 0 || c.global < 0:
		return fmt.Errorf("-window %d -nodes %d -global %d", c.window, c.nodes, c.global)
	case fo.PerRankN != o.PerRankN || fo.Steps != o.Steps || fo.SkipSteps != o.SkipSteps || fo.Seed != o.Seed:
		return fmt.Errorf("scenario %+v disagrees with grid %+v", fo, o)
	case len(c.files) > 0 && (c.cmd != "journal-diff" || c.sweep):
		return fmt.Errorf("%s kept positional arguments %q", c.cmd, c.files)
	}
	for _, name := range append([]string{fo.Platform}, o.Platforms...) {
		if _, err := platform.Get(name); err != nil {
			return err
		}
	}
	knownApp := fo.App == "rd" || fo.App == "ns"
	_, notCube := mesh.CubeGrid(fo.Ranks)
	switch c.cmd {
	case "capabilities", "provision", "rd-weak", "ns-weak", "placement", "help", "-h", "--help":
	case "availability", "bidding":
		if c.nodes < 1 {
			return fmt.Errorf("%s with -nodes %d", c.cmd, c.nodes)
		}
	case "strong":
		if !knownApp || c.global < 1 {
			return fmt.Errorf("strong with -app %q -global %d", fo.App, c.global)
		}
	case "trace":
		if !knownApp || notCube != nil {
			return fmt.Errorf("trace with -app %q -ranks %d", fo.App, fo.Ranks)
		}
	case "ablate":
		if fo.Ranks < 1 || notCube != nil && c.what != "partition" ||
			!strings.Contains(" precond packing interconnect partition ", " "+c.what+" ") {
			return fmt.Errorf("ablate -what %q -ranks %d", c.what, fo.Ranks)
		}
	case "faults":
		return scenarioInBounds(fo, true)
	case "journal-diff":
		switch {
		case !c.sweep && len(c.files) != 2:
			return fmt.Errorf("journal-diff with files %q", c.files)
		case c.replay:
			return scenarioInBounds(fo, false)
		}
	default:
		return fmt.Errorf("unknown command %q", c.cmd)
	}
	return nil
}

// scenarioInBounds restates the fault scenario's bounds; compare is a
// policy of the faults command only.
func scenarioInBounds(fo bench.FaultOptions, compare bool) error {
	_, notCube := mesh.CubeGrid(fo.Ranks)
	policies := " restart shrink-continue migrate "
	if compare {
		policies += "compare "
	}
	switch {
	case fo.Ranks < 1 || notCube != nil || fo.RanksPerNode < 0:
		return fmt.Errorf("-ranks %d -rpn %d", fo.Ranks, fo.RanksPerNode)
	case fo.Crashes < 0 || fo.Preemptions < 0 || fo.Degradations < 0:
		return fmt.Errorf("fault counts %d %d %d", fo.Crashes, fo.Preemptions, fo.Degradations)
	case fo.StormWave < 0 || fo.StormWave == 1 || fo.StormCascades < 0 || fo.StormBursts < 0 ||
		fo.StormWave == 0 && fo.StormCascades+fo.StormBursts > 0:
		return fmt.Errorf("storm %d %d %d", fo.StormWave, fo.StormCascades, fo.StormBursts)
	case fo.App != "rd" && fo.App != "ns":
		return fmt.Errorf("-app %q", fo.App)
	case !strings.Contains(policies, " "+fo.Policy+" "):
		return fmt.Errorf("-policy %q", fo.Policy)
	case fo.Regrow && fo.Policy != bench.PolicyMigrate && fo.Policy != policyCompare:
		return fmt.Errorf("-regrow under -policy %s", fo.Policy)
	}
	return nil
}

// Command heterolint machine-checks the repository's map-order,
// clock-charging, reshape-lifetime and journal-shape invariants with four
// go/analysis-style checkers:
//
//	maporder      no map-iteration order leaking into deterministic output
//	vcharge       metered float loops charge the virtual clock (transitive
//	              across packages via facts)
//	worldconsume  no use of an mp.World after Shrink/ShrinkNodes/Grow
//	obskind       obs journal kinds have one writer; no raw obs.Event
//	              literals outside obs
//
// Wall-clock reads, error-sentinel identity and obs nil-safety are not
// linted: the determinism and recovery tests fail on any violation (see
// EXPERIMENTS.md § Static analysis).
//
// It speaks the cmd/go vet-tool protocol, so the canonical invocation is
//
//	go build -o bin/heterolint ./cmd/heterolint
//	go vet -vettool=$PWD/bin/heterolint ./...
//
// For convenience, invoking it directly with package patterns re-execs
// go vet with itself as the vettool:
//
//	heterolint ./...
//
// Deliberate exceptions are annotated in source:
//
//	//heterolint:allow <keyword> <justification>
//
// on (or directly above) the offending line. Annotations without a
// justification, and annotations that no longer suppress anything, are
// themselves findings — the gate stays binary.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"heterohpc/internal/analysis/maporder"
	"heterohpc/internal/analysis/obskind"
	"heterohpc/internal/analysis/unitchecker"
	"heterohpc/internal/analysis/vcharge"
	"heterohpc/internal/analysis/worldconsume"
)

func main() {
	// Package patterns (no .cfg, no protocol flag) → re-exec under go vet,
	// which builds dependency export data and drives the protocol.
	if patterns := patternArgs(os.Args[1:]); len(patterns) > 0 {
		os.Exit(runGoVet(patterns))
	}
	unitchecker.Main(
		maporder.Analyzer,
		vcharge.Analyzer,
		worldconsume.Analyzer,
		obskind.Analyzer,
	)
}

// patternArgs returns the arguments when they are package patterns rather
// than vet-protocol flags or a unit config file.
func patternArgs(args []string) []string {
	if len(args) == 0 {
		return nil
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-") || strings.HasSuffix(a, ".cfg") {
			return nil
		}
	}
	return args
}

func runGoVet(patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterolint:", err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "heterolint:", err)
		return 1
	}
	return 0
}

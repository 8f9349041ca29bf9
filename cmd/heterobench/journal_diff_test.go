package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterohpc/internal/obs"
)

// faultsArgs is the seeded recovery scenario the journal-diff tests diff:
// the fault plan is derived from the seed, so different seeds produce
// journals that diverge at the first fault-handling decision, while a
// fault-free run's journal would not move with the seed at all.
func faultsArgs(seed string) []string {
	return []string{"faults", "-app", "rd", "-platform", "ec2", "-ranks", "8",
		"-n", "2", "-steps", "3", "-crashes", "1", "-preempts", "1", "-seed", seed}
}

// writeFaultsJournal runs the scenario and returns the journal path.
func writeFaultsJournal(t *testing.T, dir, tag, seed string) string {
	t.Helper()
	j, _ := driveObserved(t, dir, tag, faultsArgs(seed))
	p := filepath.Join(dir, tag+".copy.jsonl")
	if err := os.WriteFile(p, j, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// diff invokes `heterobench journal-diff` and returns (exit code, stdout).
func diff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"journal-diff"}, args...), &stdout, &stderr)
	if stderr.Len() > 0 && code != 2 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String() + stderr.String()
}

// TestJournalDiffEqualSeeds pins exit code 0: two runs of the identical
// seeded scenario are byte-identical, and journal-diff says so.
func TestJournalDiffEqualSeeds(t *testing.T) {
	dir := t.TempDir()
	a := writeFaultsJournal(t, dir, "a", "11")
	b := writeFaultsJournal(t, dir, "b", "11")
	code, out := diff(t, a, b)
	if code != 0 {
		t.Fatalf("equal-seed diff exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "journals identical") {
		t.Fatalf("missing identical verdict:\n%s", out)
	}
}

// TestJournalDiffDifferentSeeds pins exit code 1 and the context contract:
// the report names the first diverging line and annotates each side with
// virtual time, rank, kind, and the last completed step.
func TestJournalDiffDifferentSeeds(t *testing.T) {
	dir := t.TempDir()
	a := writeFaultsJournal(t, dir, "s11", "11")
	b := writeFaultsJournal(t, dir, "s12", "12")
	code, out := diff(t, a, b)
	if code != 1 {
		t.Fatalf("different-seed diff exited %d, want 1:\n%s", code, out)
	}
	for _, want := range []string{
		"first divergence at line",
		"common context:",
		"after-step=",
		`kind="`,
		"rank=",
		"t=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("divergence report missing %q:\n%s", want, out)
		}
	}
	// Both side headers name their file.
	if !strings.Contains(out, filepath.Base(a)) || !strings.Contains(out, filepath.Base(b)) {
		t.Errorf("report does not name both journals:\n%s", out)
	}
}

// TestJournalDiffReplay drives the full triage loop end to end: diff two
// seeded fault runs, then re-run the scenario from the nearest checkpoint
// at or before the divergence and dump solver/world state.
func TestJournalDiffReplay(t *testing.T) {
	dir := t.TempDir()
	a := writeFaultsJournal(t, dir, "s11", "11")
	b := writeFaultsJournal(t, dir, "s12", "12")
	// Every policy writes through the one tapped store, so the replay takes
	// any of them (shrink and migrate need the 2-per-node placement).
	for _, extra := range [][]string{nil, {"-policy", "migrate", "-rpn", "2"}} {
		args := append([]string{a, b, "-replay", "-app", "rd", "-platform", "ec2",
			"-ranks", "8", "-n", "2", "-steps", "3", "-crashes", "1",
			"-preempts", "1", "-seed", "12"}, extra...)
		code, out := diff(t, args...)
		if code != 1 {
			t.Fatalf("replay diff %v exited %d, want 1:\n%s", extra, code, out)
		}
		for _, want := range []string{
			"first divergence at line",
			"checkpoint-anchored replay",
			"rank  steps",
			"state-l2",
			"residual",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("replay output %v missing %q:\n%s", extra, want, out)
			}
		}
		// The anchoring note is one of the two legal forms: resumed from a
		// common checkpoint, or replayed from scratch when none precedes the
		// divergence.
		if !strings.Contains(out, "resumed from the checkpoint") &&
			!strings.Contains(out, "replayed from scratch") {
			t.Errorf("replay output %v missing anchoring note:\n%s", extra, out)
		}
	}
}

// TestJournalDiffReplayKeepsTheStorm replays a shrink-continue storm: a
// two-notice wave shrinks the 8-rank world to 4 ranks at t = 1.8 s, so the
// last checkpoint at the submitted width is the one after step 4. A replay
// that dropped -storm would re-run the job fault-free and anchor after
// step 5.
func TestJournalDiffReplayKeepsTheStorm(t *testing.T) {
	dir := t.TempDir()
	scenario := []string{"-app", "rd", "-platform", "ec2", "-ranks", "8", "-rpn", "2",
		"-n", "3", "-steps", "6", "-policy", "shrink-continue",
		"-crashes", "0", "-preempts", "0", "-storm", "2", "-seed", "12"}
	j, _ := driveObserved(t, dir, "storm", append([]string{"faults"}, scenario...))
	evs, err := obs.ReadJournal(bytes.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for i := range evs {
		if evs[i].Kind == "solve" {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("the storm journal has no solve line")
	}
	evs[last].I1++
	var edited []byte
	for i := range evs {
		edited = obs.AppendEventLine(edited, &evs[i])
	}
	a, b := filepath.Join(dir, "storm.jsonl"), filepath.Join(dir, "edited.jsonl")
	if err := os.WriteFile(b, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := diff(t, append([]string{a, b, "-replay"}, scenario...)...)
	if code != 1 {
		t.Fatalf("replay diff exited %d, want 1:\n%s", code, out)
	}
	if want := "resumed from the checkpoint after step 4, replayed to step 6"; !strings.Contains(out, want) {
		t.Fatalf("replay output missing %q:\n%s", want, out)
	}
}

// TestJournalDiffSweep runs the grid report over a small platform × ranks
// sweep: every point is generated twice at the same seed and diffed, and
// fault-free journals are deterministic, so every cell must read "same".
func TestJournalDiffSweep(t *testing.T) {
	code, out := diff(t, "-sweep", "-n", "2", "-steps", "2", "-max", "8",
		"-platforms", "puma,ec2")
	if code != 0 {
		t.Fatalf("sweep exited %d:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 || lines[0] != "journal-diff sweep: first divergence per platform × ranks" {
		t.Fatalf("want a header, a ranks row and two platform rows, got:\n%s", out)
	}
	for i, plat := range []string{"puma", "ec2"} {
		if f := strings.Fields(lines[2+i]); len(f) != 3 || f[0] != plat || f[1] != "same" || f[2] != "same" {
			t.Errorf("row %q, want %s with every cell same:\n%s", lines[2+i], plat, out)
		}
	}
}

// TestJournalDiffUsageErrors pins exit code 2 for operator mistakes, which
// must stay distinct from "journals diverge" (1).
func TestJournalDiffUsageErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeFaultsJournal(t, dir, "a", "11")
	cases := [][]string{
		{},                            // no journals
		{a},                           // only one journal
		{a, filepath.Join(dir, "no")}, // unreadable second journal
		{a, a, "-sweep"},              // files and sweep mixed
	}
	for _, args := range cases {
		if code, out := diff(t, args...); code != 2 {
			t.Errorf("journal-diff %v exited %d, want 2:\n%s", args, code, out)
		}
	}
}

// TestFailingRunStillWritesJournal is the regression test for the
// obs-on-failure fix: a command that errors after partial work must still
// flush its journal and metrics so there is something to triage, while the
// original error keeps driving the exit status.
func TestFailingRunStillWritesJournal(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "fail.jsonl")
	mp := filepath.Join(dir, "fail.json")
	var stdout, stderr bytes.Buffer
	// The ec2 job runs, then writing its timeline into a directory that does
	// not exist fails: the journal must hold the completed job when the
	// command dies. (An unknown platform name no longer gets that far: it
	// exits 2 before any work.)
	tp := filepath.Join(dir, "missing", "trace.json")
	code := run([]string{"trace", "-n", "2", "-steps", "2", "-ranks", "8",
		"-platforms", "ec2", "-csv", tp, "-journal", jp, "-metrics", mp},
		&stdout, &stderr)
	if code != 1 {
		t.Fatalf("run exited %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), tp) {
		t.Errorf("stderr does not report the failing write: %s", stderr.String())
	}
	j, err := os.ReadFile(jp)
	if err != nil {
		t.Fatalf("failing run left no journal: %v", err)
	}
	if len(j) == 0 {
		t.Fatal("failing run wrote an empty journal")
	}
	evs, err := obs.ReadJournal(bytes.NewReader(j))
	if err != nil {
		t.Fatalf("failing run's journal does not parse: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("failing run's journal has no events")
	}
	if _, err := os.Stat(mp); err != nil {
		t.Errorf("failing run left no metrics file: %v", err)
	}
}

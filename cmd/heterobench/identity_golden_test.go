package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// identityGolden maps a CLI invocation to the SHA-256 of its stdout, of the
// journal its -journal flag writes and of the metrics its -metrics flag
// writes: the rd-weak rows are an observed sweep and the faults rows the
// seed-18 storm under each policy (captured at commit 741c60a); the all row
// runs every sweep of the all command, and the strong rows both stop rules
// of a series, puma refusing 216 ranks and ec2 ending after 216 because 6³
// cannot be split 7 ways (captured at commit ecd9bdb). A change that moves
// one edits it here and says why in CHANGES.md.
var identityGolden = map[string][3]string{
	"rd-weak -n 6 -max 125": {
		"0b9eac04cfe13c03bdb9ff9207637b1fb3ca5f54cdc7bf125481f0b14d730ebf",
		"dc064f497655625fe4baf860504a0423ec9f1c4d73dc97951e6db74a23b5f9c1",
		"ebf226243bfac2f38a689a556d480b59d6673a0f88281e86b2beffe84ad0a04d"},
	"rd-weak -n 6 -max 125 -platforms ec2": {
		"020cc88da19d844cc97092edafb3c891f73cd81d5801a77b50949e8b0155e9dd",
		"66ac8fd490bcc7454edde76136a6c1f5eee2e213484bb28b0d1909a0265be02f",
		"3dcbc2cff566ec8eae3d0c1d9fa7983c54bccec088da35b1268ae670fd63ba65"},
	"faults -app rd -platform ec2 -ranks 64 -rpn 8 -n 8 -steps 8 -storm 3 -seed 18 -policy restart": {
		"cdb96d79bf5b610b31094cea1a1276f74679f0b2b6412c1b3e1dc47f43847a7c",
		"2e5c9cfd69dd064043115544133a9a45d7da5392f8c24a4507c3e64807a36b0f",
		"a087c6abf987a805fd3240ed7eb857520c31a036f6d486d5c246f8ab19f0ecbe"},
	"faults -app rd -platform ec2 -ranks 64 -rpn 8 -n 8 -steps 8 -storm 3 -seed 18 -policy shrink-continue": {
		"6383ecaf5459cc23446f702dc6d63ef79e90ace4da315667378c0ac7c2675807",
		"89da291fc6126ea4e1a2b84873d121734953b51f65bff18caff0cf75b43a1cf0",
		"65ad53199693be6f3b3c41c0e525315fa07353d3707d1599679a7c0675e0e9fc"},
	"faults -app rd -platform ec2 -ranks 64 -rpn 8 -n 8 -steps 8 -storm 3 -seed 18 -policy migrate": {
		"23bc5688bd1336e4b84f04e3b58be4ae09f7e905a65ea996363f2b79d07112aa",
		"7300b24f8594667e9e923160336b536ca2c43d196ce9d982336de91acd79794f",
		"d749ec2e9095d8f29a940328f1e6de41d220489906ec8246771bb9dd55872adc"},
	"all -n 2 -steps 2 -max 27 -nodes 4": {
		"afdc7fef6d71f86c616b0b84b50c214df76056e228fbea80d96be5e61f8f80ee",
		"99f4464b4562ddcc8cedaf53a84ebc5b380411b586a8f4e54223d8f58a9b2c47",
		"a155bfb97c66ef716669fb3d7b9c21ac5b9ca727afe0f2291819d0f68289d434"},
	"strong -app ns -global 6 -steps 2 -max 27": {
		"084bf969e4ef926e53b2c51b47ed831b1d7b908af62a9bb3bd059c36180f436e",
		"81039844bd18b0f6b827c040f240c560b404500a976c2801df18e7aaefc47cc3",
		"978ee1cc0dc2ac7c76d4fde06e1f612a2ea515d4bb67e0e859165f1912ef33e8"},
	"strong -global 6 -steps 2 -platforms puma,ec2": {
		"0831be4d12e496b47bab496fcada69d9879d1c3f539bf89a9fc756172eecbec7",
		"e25b22c9e0d107ae27c2db133631bd4112ab16bb19b9b310d3612ad646a13a18",
		"645dcb6599dc4dbe933c82d11f4c4ef4da9a9d2c36a2c25e673c0ca2746a6cc9"},
}

// TestIdentityDigests runs each invocation of identityGolden through run,
// stdout into memory and journal and metrics into files, and compares the
// three hashes: the byte-identity oracle for changes that must move no
// clock, charge, message, journal or metrics byte. Each invocation is a
// subtest named by its arguments, spaces as underscores (-run
// 'TestIdentityDigests/strong_-global_6').
func TestIdentityDigests(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for args, want := range identityGolden {
		t.Run(args, func(t *testing.T) {
			dir := t.TempDir()
			journal, metrics := filepath.Join(dir, "j.jsonl"), filepath.Join(dir, "m.json")
			var stdout, stderr bytes.Buffer
			argv := append(strings.Fields(args), "-journal", journal, "-metrics", metrics)
			if code := run(argv, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			got := [3]string{digest(stdout.Bytes())}
			for i, path := range []string{journal, metrics} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got[i+1] = digest(b)
			}
			for i, what := range []string{"stdout", "journal", "metrics"} {
				if got[i] != want[i] {
					t.Errorf("%s SHA-256 %s, want %s; stdout:\n%s", what, got[i], want[i], stdout.String())
				}
			}
		})
	}
}

// resultsFromTree maps each results/ file cheap enough to re-derive inside
// go test to its results/README.md command (the arguments after
// "heterobench").
var resultsFromTree = map[string]string{
	"availability.txt":        "availability -nodes 32",
	"bidding.txt":             "bidding -nodes 63",
	"strong.txt":              "strong -global 24 -n 10 -steps 2 -platforms lagrange,ec2 -max 216",
	"ablate_precond.txt":      "ablate -what precond -ranks 27 -n 8 -steps 2",
	"ablate_packing.txt":      "ablate -what packing -ranks 64 -n 8 -steps 2",
	"ablate_interconnect.txt": "ablate -what interconnect -ranks 27 -n 8 -steps 2",
}

// TestResultsMatchTree runs each command of resultsFromTree through run and
// compares its stdout, as text, with the checked-in file, and checks that
// results/README.md still names that command: a change that moves a number
// EXPERIMENTS.md quotes regenerates the file in the same commit. Each file
// is a subtest named after it (-run 'TestResultsMatchTree/strong.txt').
func TestResultsMatchTree(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "results", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for file, args := range resultsFromTree {
		t.Run(file, func(t *testing.T) {
			if row := "| `" + file + "` | `heterobench " + args + "` |"; !strings.Contains(string(readme), row) {
				t.Errorf("results/README.md has no row %q", row)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", file))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit %d\n%s", args, code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("results/%s is stale; heterobench %s now prints:\n%s", file, args, got)
			}
		})
	}
}

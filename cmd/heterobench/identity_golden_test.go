package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// identityGolden maps a CLI invocation to the SHA-256 of its stdout, of the
// journal its -journal flag writes and of the metrics its -metrics flag
// writes: the rd-weak rows are an observed sweep and the faults rows the
// seed-18 storm under each policy (captured at commit 741c60a); the strong
// rows both stop rules of a series, puma refusing 216 ranks and ec2 ending after 216 because 6³
// cannot be split 7 ways (captured at commit ecd9bdb); the ns-weak and
// placement rows a small sweep of each (captured at commit 52f5e72). A
// change that moves one edits it here and says why in CHANGES.md.
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
	"ns-weak -n 2 -steps 2 -max 27": {
		"ed8b4861dd4cab9430c433a94456d6ea7bd6637f39febf3822c5cd38d6603968",
		"64376d2494ba13702985cbcdb00bde718da6dbf4f51a352144b2309edfe4080c",
		"9a20ed18b77c6c997280faee762c49f944ba0d6b5365bc933ae128cf6e1a8861"},
	"placement -n 2 -steps 2 -max 27": {
		"7c71c6e63c719ec58dd02ebe630eeb1ef7fd30e8d03ed5c2497599c7eed21708",
		"aaace1162c370fb7a9b6c216291cf4c4eb5ca6a535d2394b346844e00afa9aad",
		"8ff0f53d68c86368d29b3b1aec67b6d152580c067b2d934e6d05962c973fdd55"},
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

// longSweeps holds the results/ files whose sweeps are too slow for go test,
// go test -race above all. TestResultsMatchTree reruns each one's command
// with -max sweepCap and finds each non-blank line of that stdout in the
// file, in order, since a row at P ≤ sweepCap prints the same in both runs.
// The rows above the cap go unchecked, except that the file must end at its
// command's own -max, so a file cut short fails.
var longSweeps = map[string]bool{
	"rd_n10.txt": true, "ns_n8.txt": true, "placement_n10.txt": true, "rd_n20_ec2.txt": true,
}

const sweepCap = 8

// readmeRow matches a row of results/README.md's table: file and command.
var readmeRow = regexp.MustCompile("^\\| `([^`]+)` \\| `heterobench ([^`]+)` \\|")

// TestResultsMatchTree runs the command of each row of results/README.md's
// table, the one list of the results/ files, through run and compares its
// stdout with the file: exactly, or at the capped rows for a file of
// longSweeps. Every results/*.txt must have a row and every longSweeps key
// must name one. A change that moves a number EXPERIMENTS.md quotes
// regenerates the file in the same commit. Each file is a subtest named
// after it (-run 'TestResultsMatchTree/strong.txt').
func TestResultsMatchTree(t *testing.T) {
	var rows [][2]string
	for _, line := range strings.Split(readRepo(t, "results/README.md"), "\n") {
		if m := readmeRow.FindStringSubmatch(line); m != nil {
			rows = append(rows, [2]string{m[1], m[2]})
		} else if strings.HasPrefix(line, "| `") {
			t.Errorf("results/README.md row is not | `file` | `heterobench args` |: %s", line)
		}
	}
	listed := func(file string) bool {
		return slices.ContainsFunc(rows, func(r [2]string) bool { return r[0] == file })
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !listed(filepath.Base(f)) {
			t.Errorf("results/%s has no row in results/README.md", filepath.Base(f))
		}
	}
	for file := range longSweeps {
		if !listed(file) {
			t.Errorf("longSweeps names %s, which results/README.md does not list", file)
		}
	}
	for _, r := range rows {
		name, args := r[0], strings.Fields(r[1])
		t.Run(name, func(t *testing.T) {
			file := readRepo(t, "results/"+name)
			capped := longSweeps[name]
			if capped {
				args = append(args, "-max", strconv.Itoa(sweepCap))
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit %d\n%s", args, code, stderr.String())
			}
			got := stdout.String()
			if !capped {
				if got != file {
					t.Errorf("results/%s is stale; heterobench %s now prints:\n%s", name, r[1], got)
				}
				return
			}
			if line := firstMissing(got, file); line != "" {
				t.Errorf("results/%s is stale: heterobench %s prints, in order, a line it lacks:\n%s",
					name, strings.Join(args, " "), line)
			}
			// The first -max is the command's own, the cap's comes after it.
			own := args[slices.Index(args, "-max")+1]
			body := strings.TrimSpace(file)
			if last := strings.TrimSpace(body[strings.LastIndex(body, "\n")+1:]); !strings.HasPrefix(last, own+" ") {
				t.Errorf("results/%s ends at %q, not at P=%s: cut short?", name, last, own)
			}
		})
	}
}

// experimentQuotes maps each section of EXPERIMENTS.md that quotes a
// results/ file, by the start of its heading, to that file.
var experimentQuotes = map[string]string{
	"E3 ":    "rd_n10.txt",
	"E4 ":    "ns_n8.txt",
	"E5 ":    "placement_n10.txt",
	"E6/E7 ": "rd_n10.txt",
	"E9 ":    "availability.txt",
}

// TestExperimentsQuoteResults checks that the first fenced block of each
// section of experimentQuotes is an ordered excerpt of its results/ file:
// each quoted row is a row of the file, byte for byte, in the file's order.
func TestExperimentsQuoteResults(t *testing.T) {
	sections := strings.Split(readRepo(t, "EXPERIMENTS.md"), "\n## ")
	for heading, file := range experimentQuotes {
		name := strings.TrimSpace(heading)
		t.Run(name, func(t *testing.T) {
			i := slices.IndexFunc(sections, func(s string) bool { return strings.HasPrefix(s, heading) })
			if i < 0 {
				t.Fatalf("EXPERIMENTS.md has no section ## %s", name)
			}
			// The block runs from the line after its opening fence to the
			// closing one.
			_, block, ok := strings.Cut(sections[i], "\n```")
			if _, block, ok = strings.Cut(block, "\n"); ok {
				block, _, ok = strings.Cut(block, "\n```")
			}
			if !ok {
				t.Fatalf("EXPERIMENTS.md %s has no fenced block", name)
			}
			if line := firstMissing(block, readRepo(t, "results/"+file)); line != "" {
				t.Errorf("EXPERIMENTS.md %s quotes a line results/%s lacks, in order:\n%s", name, file, line)
			}
		})
	}
}

// firstMissing returns the first non-blank line of part that is not a line
// of whole in whole's order, or "" when part is an ordered excerpt of whole.
func firstMissing(part, whole string) string {
	rest := strings.Split(whole, "\n")
	for _, line := range strings.Split(part, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		i := slices.Index(rest, line)
		if i < 0 {
			return line
		}
		rest = rest[i+1:]
	}
	return ""
}

// readRepo returns the file at path, relative to the repository root.
func readRepo(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", path))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

package unitchecker_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetxFactFlow proves the facts round-trip through the real cmd/go
// protocol: it builds the heterolint binary, lays out a two-package module
// where a metered krylov loop charges only through a helper in its sparse
// dependency, and asserts that `go vet -vettool` accepts that loop while
// still flagging an uncharged sibling — which is only possible if the
// ChargesFact survived serialization into the dependency unit's .vetx file
// and deserialization in the consumer unit.
func TestVetxFactFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found in PATH")
	}

	tmp := t.TempDir()
	tool := filepath.Join(tmp, "heterolint")
	build := exec.Command(goTool, "build", "-o", tool, "heterohpc/cmd/heterolint")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building heterolint: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module factflow\n\ngo 1.22\n")
	write("sparse/sparse.go", `package sparse

// Charger receives operation counts from compute kernels.
type Charger interface {
	ChargeCompute(flops, bytes float64)
}

type nop struct{}

func (nop) ChargeCompute(flops, bytes float64) {}

// Meter is the package-level charge sink.
var Meter Charger = nop{}

// AxpyMetered charges the package meter itself: no Charger crosses the
// call, so importers see the charge only through the ChargesFact.
func AxpyMetered(n int, a float64, x, y []float64) {
	for i := 0; i < n; i++ {
		y[i] += a * x[i]
	}
	Meter.ChargeCompute(2*float64(n), 24*float64(n))
}
`)
	write("krylov/krylov.go", `package krylov

import "factflow/sparse"

// TwoStage is charged only through the imported fact.
func TwoStage(n int, x, y []float64) {
	for i := 0; i < n; i++ {
		y[i] -= x[i]
	}
	sparse.AxpyMetered(n, 2, x, y)
}

// RawNorm charges nothing.
func RawNorm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}
`)

	// The second run exercises cmd/go's vet cache: the cached .vetx files
	// must decode to the same facts and reproduce the same verdicts.
	for _, run := range []string{"first run", "cached rerun"} {
		vet := exec.Command(goTool, "vet", "-vettool="+tool, "./...")
		vet.Dir = mod
		out, err := vet.CombinedOutput()
		if err == nil {
			t.Fatalf("%s: go vet succeeded; want a vcharge finding on RawNorm\noutput:\n%s", run, out)
		}
		if !strings.Contains(string(out), "exported RawNorm loops over float64 data") {
			t.Fatalf("%s: uncharged RawNorm not flagged; output:\n%s", run, out)
		}
		if strings.Contains(string(out), "TwoStage") {
			t.Fatalf("%s: TwoStage flagged, so sparse's ChargesFact did not reach krylov; output:\n%s", run, out)
		}
	}
}

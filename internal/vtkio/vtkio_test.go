package vtkio

import (
	"strings"
	"testing"

	"heterohpc/internal/mesh"
)

func TestWriteScalarField(t *testing.T) {
	m := mesh.NewUnitCube(2)
	vals := make([]float64, m.NumVerts())
	for v := range vals {
		x, y, z := m.VertexCoord(v)
		vals[v] = x + y + z
	}
	var b strings.Builder
	err := Write(&b, m, "rd solution", []Field{{Name: "u", Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DATASET STRUCTURED_POINTS",
		"DIMENSIONS 3 3 3",
		"SPACING 0.5 0.5 0.5",
		"POINT_DATA 27",
		"SCALARS u double 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// 27 value lines after the lookup table.
	if got := strings.Count(out, "\n"); got < 27+9 {
		t.Errorf("suspiciously short output (%d lines)", got)
	}
}

func TestWriteVectorField(t *testing.T) {
	m := mesh.NewUnitCube(1)
	nv := m.NumVerts()
	var vec [3][]float64
	for c := 0; c < 3; c++ {
		vec[c] = make([]float64, nv)
		for i := range vec[c] {
			vec[c][i] = float64(c)
		}
	}
	var b strings.Builder
	if err := Write(&b, m, "velocity", []Field{{Name: "u", Vector: vec}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "VECTORS u double") {
		t.Fatalf("missing vector header:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "0 1 2") {
		t.Fatalf("vector components not interleaved:\n%s", b.String())
	}
}

// Fields are written in the order given, not sorted by name, so a caller
// controls the layout ParaView shows.
func TestWriteKeepsFieldOrder(t *testing.T) {
	m := mesh.NewUnitCube(1)
	nv := m.NumVerts()
	vec := [3][]float64{make([]float64, nv), make([]float64, nv), make([]float64, nv)}
	fields := []Field{
		{Name: "z", Values: make([]float64, nv)},
		{Name: "b", Vector: vec},
		{Name: "a", Values: make([]float64, nv)},
	}
	var b strings.Builder
	if err := Write(&b, m, "order", fields); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	z := strings.Index(out, "SCALARS z double 1")
	v := strings.Index(out, "VECTORS b double")
	a := strings.Index(out, "SCALARS a double 1")
	if z < 0 || v < 0 || a < 0 || !(z < v && v < a) {
		t.Fatalf("field headers at %d, %d, %d; want z, b, a in order:\n%s", z, v, a, out)
	}
}

func TestWriteValidation(t *testing.T) {
	m := mesh.NewUnitCube(1)
	var b strings.Builder
	if err := Write(&b, nil, "t", nil); err == nil {
		t.Error("nil mesh accepted")
	}
	if err := Write(&b, m, "t", []Field{{Name: "", Values: make([]float64, m.NumVerts())}}); err == nil {
		t.Error("empty field name accepted")
	}
	short := []Field{{Name: "u", Values: []float64{1}}}
	if err := Write(&b, m, "t", short); err == nil {
		t.Error("short field accepted")
	}
	dup := []Field{
		{Name: "u", Values: make([]float64, m.NumVerts())},
		{Name: "u", Values: make([]float64, m.NumVerts())},
	}
	if err := Write(&b, m, "t", dup); err == nil {
		t.Error("duplicate names accepted")
	}
	badVec := []Field{{Name: "v", Vector: [3][]float64{{1}, {1}, {1}}}}
	if err := Write(&b, m, "t", badVec); err == nil {
		t.Error("short vector accepted")
	}
}

func TestFromOwned(t *testing.T) {
	m := mesh.NewUnitCube(1) // 8 vertices
	ids := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	vals := [][]float64{{0, 10, 20, 30}, {40, 50, 60, 70}}
	out, err := FromOwned(m, ids, vals)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		if out[v] != float64(v*10) {
			t.Fatalf("vertex %d = %v", v, out[v])
		}
	}
}

func TestFromOwnedValidation(t *testing.T) {
	m := mesh.NewUnitCube(1)
	if _, err := FromOwned(m, [][]int{{0}}, [][]float64{{1, 2}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FromOwned(m, [][]int{{0}, {0}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("double ownership accepted")
	}
	if _, err := FromOwned(m, [][]int{{99}}, [][]float64{{1}}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := FromOwned(m, [][]int{{0}}, [][]float64{{1}}); err == nil {
		t.Error("incomplete coverage accepted")
	}
}

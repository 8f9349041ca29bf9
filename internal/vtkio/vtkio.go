// Package vtkio writes solutions in the legacy VTK format, covering step
// (iv) of the paper's program organisation: "the visualization of the
// solution to the differential problem … delegated to third party software
// such as Paraview". Files written here load directly into ParaView/VisIt.
//
// Structured meshes map onto VTK STRUCTURED_POINTS datasets: one file holds
// any number of scalar point fields and optional 3-component vector fields
// over the mesh vertices.
package vtkio

import (
	"bufio"
	"fmt"
	"io"

	"heterohpc/internal/mesh"
)

// Field is one named point-data array over all global mesh vertices.
type Field struct {
	Name string
	// Values has length m.NumVerts() for scalars, or nil if Vector is set.
	Values []float64
	// Vector holds the three components of a vector field, each of length
	// m.NumVerts().
	Vector [3][]float64
}

// Write emits a legacy-VTK STRUCTURED_POINTS dataset with the given point
// fields. Field order is preserved; names must be unique and non-empty.
func Write(w io.Writer, m *mesh.Mesh, title string, fields []Field) error {
	if m == nil {
		return fmt.Errorf("vtkio: nil mesh")
	}
	nv := m.NumVerts()
	seen := map[string]bool{}
	for _, f := range fields {
		if f.Name == "" {
			return fmt.Errorf("vtkio: field with empty name")
		}
		if seen[f.Name] {
			return fmt.Errorf("vtkio: duplicate field %q", f.Name)
		}
		seen[f.Name] = true
		if f.Values != nil {
			if len(f.Values) != nv {
				return fmt.Errorf("vtkio: field %q has %d values for %d vertices",
					f.Name, len(f.Values), nv)
			}
		} else {
			for c := 0; c < 3; c++ {
				if len(f.Vector[c]) != nv {
					return fmt.Errorf("vtkio: vector field %q component %d has %d values for %d vertices",
						f.Name, c, len(f.Vector[c]), nv)
				}
			}
		}
	}

	bw := bufio.NewWriter(w)
	hx, hy, hz := m.H()
	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	fmt.Fprintln(bw, title)
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET STRUCTURED_POINTS")
	fmt.Fprintf(bw, "DIMENSIONS %d %d %d\n", m.Nx+1, m.Ny+1, m.Nz+1)
	fmt.Fprintf(bw, "ORIGIN %g %g %g\n", m.Box.Lo[0], m.Box.Lo[1], m.Box.Lo[2])
	fmt.Fprintf(bw, "SPACING %g %g %g\n", hx, hy, hz)
	fmt.Fprintf(bw, "POINT_DATA %d\n", nv)
	for _, f := range fields {
		if f.Values != nil {
			fmt.Fprintf(bw, "SCALARS %s double 1\n", f.Name)
			fmt.Fprintln(bw, "LOOKUP_TABLE default")
			for _, v := range f.Values {
				fmt.Fprintf(bw, "%g\n", v)
			}
		} else {
			fmt.Fprintf(bw, "VECTORS %s double\n", f.Name)
			for i := 0; i < nv; i++ {
				fmt.Fprintf(bw, "%g %g %g\n", f.Vector[0][i], f.Vector[1][i], f.Vector[2][i])
			}
		}
	}
	return bw.Flush()
}

// FromOwned reconstructs a global vertex field from per-rank owned pieces:
// ownedIDs[r] and ownedVals[r] are rank r's sorted owned vertex ids and
// values (the layout fem.Space and sparse.RowMap produce). Every vertex
// must be owned exactly once.
func FromOwned(m *mesh.Mesh, ownedIDs [][]int, ownedVals [][]float64) ([]float64, error) {
	if len(ownedIDs) != len(ownedVals) {
		return nil, fmt.Errorf("vtkio: %d id lists vs %d value lists", len(ownedIDs), len(ownedVals))
	}
	nv := m.NumVerts()
	out := make([]float64, nv)
	filled := make([]bool, nv)
	for r := range ownedIDs {
		if len(ownedIDs[r]) != len(ownedVals[r]) {
			return nil, fmt.Errorf("vtkio: rank %d has %d ids but %d values",
				r, len(ownedIDs[r]), len(ownedVals[r]))
		}
		for i, g := range ownedIDs[r] {
			if g < 0 || g >= nv {
				return nil, fmt.Errorf("vtkio: vertex id %d out of range", g)
			}
			if filled[g] {
				return nil, fmt.Errorf("vtkio: vertex %d owned twice", g)
			}
			filled[g] = true
			out[g] = ownedVals[r][i]
		}
	}
	missing := 0
	for _, f := range filled {
		if !f {
			missing++
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("vtkio: %d vertices unowned", missing)
	}
	return out, nil
}

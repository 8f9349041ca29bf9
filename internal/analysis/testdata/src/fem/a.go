// Package fem is the vcharge multi-file fixture: allow annotations and the
// diagnostics they suppress live in different files of one package, so
// stale-annotation detection must see the whole fileset at once.
package fem

// Reference loops uncharged on purpose, excused in this file.
//
//heterolint:allow vcharge analytic reference solution, outside the metered iteration
func Reference(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

package fem

// Quiet trips nothing, so the annotation above it is stale.
//
//heterolint:allow vcharge leftover from a removed kernel // want `unused //heterolint:allow vcharge annotation`
func Quiet() int { return 1 }

// Hot is flagged: the allow on line 8 of a.go does not cross files.
func Hot(x []float64) float64 { // want `exported Hot loops over float64 data with no reachable compute charge`
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Probe is excused by an annotation on the offending line itself.
func Probe(x []float64) float64 { //heterolint:allow vcharge debug probe, never on a simulated path
	var s float64
	for _, v := range x {
		s -= v
	}
	return s
}

// Bare suppresses its finding but gives no reason, which is itself a
// finding.
//
//heterolint:allow vcharge // want `needs a justification`
func Bare(x []float64) float64 {
	var s float64
	for _, v := range x {
		s *= v
	}
	return s
}

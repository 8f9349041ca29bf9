package sparse

// Test-only exports for the external sparse_test package, which may import
// fem (package sparse's own tests cannot: fem imports sparse).
var (
	RefCSRFromCOO  = refCSRFromCOO
	RequireSameCSR = requireSameCSR
	RunWorld       = runWorld

	RequireMulVecMatchesReference = requireMulVecMatchesReference

	// RefNewDistMatrix is the per-matrix construction kept as the oracle
	// for structure reuse.
	RefNewDistMatrix = refNewDistMatrix
)

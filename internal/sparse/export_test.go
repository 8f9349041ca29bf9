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

	// RefNewDirichlet is the per-coupling boundary elimination kept as the
	// oracle for the per-column one.
	RefNewDirichlet = refNewDirichlet

	// Expand spells a COO of either form out as a fresh triplet COO.
	Expand = expand
)

// StructureView is what a test may compare of a matrix's symbolic
// structure beyond the pattern: the refill plan, the ghost column list and
// the export and import schedules.
type StructureView struct {
	Plan                     []int32
	GhostCols                []int
	ExportPeers, ImportPeers []int
	ExportIdx, ImportSlots   [][]int
}

// StructureView returns dm's structure; the slices alias it but for the
// export lists, which the plan spells: contribution t goes to export peer i
// where the plan holds ^i.
func (dm *DistMatrix) StructureView() StructureView {
	st := dm.st
	exportIdx := make([][]int, len(st.exportPeers))
	for t, s := range st.plan {
		if s < 0 {
			exportIdx[^s] = append(exportIdx[^s], t)
		}
	}
	return StructureView{Plan: st.plan, GhostCols: st.ghostCols,
		ExportPeers: st.exportPeers, ImportPeers: st.importPeers,
		ExportIdx: exportIdx, ImportSlots: st.importSlots}
}

// FreezeUnder freezes dm as Freeze does, but files and looks up its values
// under key, so that a test can make the keys of unequal arrays collide.
func (dm *DistMatrix) FreezeUnder(key uint64) { dm.freeze(key) }

// NewDistMatrixLike builds a matrix from coo as NewDistMatrix does, over
// prev's rank and RowMap, sharing prev's importer as NewDistMatrixBlocks
// does for its like: the COO form of that build, for the structure oracles.
func NewDistMatrixLike(prev *DistMatrix, coo *COO, owner func(int) int, tag int) (*DistMatrix, error) {
	dm, err := newDistMatrix(prev.r, prev.rowMap, coo, owner, tag, prev.imp)
	if err != nil {
		return nil, err
	}
	dm.SetValues(coo)
	return dm, nil
}

// Sent returns the pair streams the last build from the assembly sent, one
// per export peer in ascending order: the slices themselves, which the next
// build re-sends when it would spell them alike.
func (s *segScratch) Sent() [][]int { return s.sent }
